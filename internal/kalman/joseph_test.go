package kalman

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamkf/internal/mat"
)

func josephConfig(q, r float64) Config {
	cfg := cvConfig(1, q, r)
	cfg.JosephForm = true
	return cfg
}

func TestJosephFormMatchesStandardInExactArithmetic(t *testing.T) {
	// On well-conditioned problems the two updates agree to near machine
	// precision.
	std := MustNew(cvConfig(1, 0.05, 0.05))
	jos := MustNew(josephConfig(0.05, 0.05))
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 200; k++ {
		z := mat.Vec(float64(k) + rng.NormFloat64())
		if err := std.Step(z); err != nil {
			t.Fatal(err)
		}
		if err := jos.Step(z); err != nil {
			t.Fatal(err)
		}
	}
	if !mat.ApproxEqual(std.State(), jos.State(), 1e-8) {
		t.Fatalf("states diverge: %v vs %v", std.State(), jos.State())
	}
	if !mat.ApproxEqual(std.Cov(), jos.Cov(), 1e-8) {
		t.Fatalf("covariances diverge: %v vs %v", std.Cov(), jos.Cov())
	}
}

func TestJosephFormKeepsCovariancePositiveDefinite(t *testing.T) {
	// Stress case: near-zero measurement noise drives the standard form
	// toward a singular covariance; Joseph must keep strictly positive
	// diagonals and pass a Cholesky after adding the next Q.
	cfg := josephConfig(1e-10, 1e-12)
	f := MustNew(cfg)
	for k := 0; k < 500; k++ {
		if err := f.Step(mat.Vec(float64(k))); err != nil {
			t.Fatal(err)
		}
		p := f.Cov()
		for i := 0; i < p.Rows(); i++ {
			if p.At(i, i) < 0 {
				t.Fatalf("step %d: negative variance %v", k, p.At(i, i))
			}
		}
		if !mat.IsFinite(p) {
			t.Fatalf("step %d: non-finite covariance", k)
		}
	}
}

func TestJosephCloneCarriesFlag(t *testing.T) {
	f := MustNew(josephConfig(0.1, 0.1))
	c := f.Clone()
	if !c.sh.joseph {
		t.Fatal("Clone dropped JosephForm flag")
	}
}

// Property: both forms keep the mirror-synchrony property — a pair of
// Joseph filters fed identical sequences stays identical.
func TestJosephMirrorSynchronyProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := MustNew(josephConfig(0.05, 0.05))
		b := a.Clone()
		for k := 0; k < 40; k++ {
			a.Predict()
			b.Predict()
			if rng.Intn(2) == 0 {
				z := mat.Vec(rng.NormFloat64() * 10)
				if a.Correct(z) != nil || b.Correct(z) != nil {
					return false
				}
			}
			if !StateEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestJosephTracksSameAsStandard(t *testing.T) {
	// End behaviour sanity: Joseph tracks a ramp as well as standard.
	f := MustNew(josephConfig(1e-4, 0.01))
	for k := 1; k <= 100; k++ {
		if err := f.Step(mat.Vec(2.5 * float64(k))); err != nil {
			t.Fatal(err)
		}
	}
	if v := f.State().At(1, 0); math.Abs(v-2.5) > 0.05 {
		t.Fatalf("velocity = %v, want ~2.5", v)
	}
}
