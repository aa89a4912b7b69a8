package kalman

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"streamkf/internal/mat"
)

func TestLogLikelihoodPrefersNearMeasurements(t *testing.T) {
	f := MustNew(scalarConfig(0.1, 0.1, 0))
	f.Predict()
	near, err := f.LogLikelihood(mat.Vec(0.01))
	if err != nil {
		t.Fatal(err)
	}
	far, err := f.LogLikelihood(mat.Vec(30))
	if err != nil {
		t.Fatal(err)
	}
	if near <= far {
		t.Fatalf("LL(near)=%v <= LL(far)=%v", near, far)
	}
	// Must not mutate the filter.
	if f.State().At(0, 0) != 0 {
		t.Fatal("LogLikelihood mutated the filter")
	}
}

func TestLogLikelihoodMatchesGaussianDensity(t *testing.T) {
	// Scalar case closed form: S = P + R; LL = ln N(z; Hx, S).
	f := MustNew(scalarConfig(0.2, 0.3, 1))
	// Before any Predict the filter has P0 = 1.
	s := 1.0 + 0.3
	z := 1.7
	want := -0.5 * (math.Log(2*math.Pi) + math.Log(s) + (z-1)*(z-1)/s)
	got, err := f.LogLikelihood(mat.Vec(z))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("LL = %v, want %v", got, want)
	}
}

func TestLogLikelihoodErrors(t *testing.T) {
	f := MustNew(scalarConfig(0.1, 0.1, 0))
	if _, err := f.LogLikelihood(mat.Vec(1, 2)); err == nil {
		t.Fatal("accepted wrong-dimension measurement")
	}
}

// TestLogLikelihoodSingularS pins the error chain on a singular innovation
// covariance: LogLikelihood must wrap the inversion failure the way
// Correct and NIS do, not report a made-up determinant.
func TestLogLikelihoodSingularS(t *testing.T) {
	for name, cfg := range map[string]Config{
		"1x1": {Phi: Static(mat.Identity(1)), H: mat.Diag(0), Q: mat.Diag(0.1), R: mat.Diag(0), X0: mat.Vec(0)},
		"2x2": {
			Phi: Static(mat.Identity(2)), H: mat.FromRows([][]float64{{1, 0}, {1, 0}}),
			Q: mat.ScaledIdentity(2, 0.1), R: mat.New(2, 2), X0: mat.Vec(0, 0),
		},
	} {
		f := MustNew(cfg)
		z := mat.New(cfg.H.Rows(), 1)
		_, llErr := f.LogLikelihood(z)
		_, nisErr := f.NIS(z)
		corrErr := f.Correct(z)
		for op, err := range map[string]error{"LogLikelihood": llErr, "NIS": nisErr, "Correct": corrErr} {
			if !errors.Is(err, mat.ErrSingular) {
				t.Errorf("%s %s on singular S: %v, want an error wrapping mat.ErrSingular", name, op, err)
			}
		}
	}
}

func TestLogLikelihoodSelectsTrueModel(t *testing.T) {
	// Feed a ramp to a constant and a linear filter; the cumulative
	// likelihood must favour the linear model decisively.
	rng := rand.New(rand.NewSource(6))
	linear := MustNew(cvConfig(1, 1e-4, 0.05))
	constant := MustNew(scalarConfig(1e-4, 0.05, 0))
	var llLin, llConst float64
	for k := 1; k <= 200; k++ {
		z := mat.Vec(1.5*float64(k) + 0.1*rng.NormFloat64())
		linear.Predict()
		constant.Predict()
		if k > 20 { // skip the transient
			l1, err := linear.LogLikelihood(z)
			if err != nil {
				t.Fatal(err)
			}
			l2, err := constant.LogLikelihood(z)
			if err != nil {
				t.Fatal(err)
			}
			llLin += l1
			llConst += l2
		}
		if err := linear.Correct(z); err != nil {
			t.Fatal(err)
		}
		if err := constant.Correct(z); err != nil {
			t.Fatal(err)
		}
	}
	if llLin <= llConst {
		t.Fatalf("linear LL %v <= constant LL %v on a ramp", llLin, llConst)
	}
}
