package kalman

import (
	"math"
	"math/rand"
	"testing"

	"streamkf/internal/mat"
)

// pendulumEKF builds an EKF for a damped pendulum-like non-linear system
//
//	theta' = theta + omega*dt
//	omega' = omega - g*sin(theta)*dt
//
// measuring theta only. This is the footnote-1 style case in the paper:
// rotational state makes the propagation non-linear.
func pendulumEKF(dt, g, q, r float64) *EKF {
	f := func(_ int, x *mat.Matrix) *mat.Matrix {
		th, om := x.At(0, 0), x.At(1, 0)
		return mat.Vec(th+om*dt, om-g*math.Sin(th)*dt)
	}
	fJac := func(_ int, x *mat.Matrix) *mat.Matrix {
		th := x.At(0, 0)
		return mat.FromRows([][]float64{
			{1, dt},
			{-g * math.Cos(th) * dt, 1},
		})
	}
	h := func(x *mat.Matrix) *mat.Matrix { return mat.Vec(x.At(0, 0)) }
	hJac := func(_ int, _ *mat.Matrix) *mat.Matrix {
		return mat.FromRows([][]float64{{1, 0}})
	}
	e, err := NewEKF(EKFConfig{
		F: f, FJac: fJac, H: h, HJac: hJac,
		Q: mat.ScaledIdentity(2, q), R: mat.Diag(r),
		X0: mat.Vec(0.1, 0), P0: mat.ScaledIdentity(2, 1),
	})
	if err != nil {
		panic(err)
	}
	return e
}

func TestEKFTracksPendulum(t *testing.T) {
	const dt, g = 0.01, 9.8
	rng := rand.New(rand.NewSource(3))
	e := pendulumEKF(dt, g, 1e-6, 0.01)
	// Simulate the true pendulum.
	th, om := 0.5, 0.0
	var sumErr float64
	const steps = 2000
	for k := 0; k < steps; k++ {
		th, om = th+om*dt, om-g*math.Sin(th)*dt
		z := th + 0.1*rng.NormFloat64()
		if err := e.Step(mat.Vec(z)); err != nil {
			t.Fatal(err)
		}
		if k > steps/2 {
			sumErr += math.Abs(e.State().At(0, 0) - th)
		}
	}
	avg := sumErr / (steps / 2)
	if avg > 0.05 {
		t.Fatalf("EKF avg tracking error = %v, want < 0.05", avg)
	}
	if e.Innovation() == nil {
		t.Fatal("Innovation nil after corrections")
	}
}

func TestEKFBeatsDeadReckoning(t *testing.T) {
	// Without corrections the linearized model drifts under noise; the
	// EKF with corrections must end closer to the truth.
	const dt, g = 0.01, 9.8
	rng := rand.New(rand.NewSource(9))
	filtered := pendulumEKF(dt, g, 1e-6, 0.01)
	dead := pendulumEKF(dt, g, 1e-6, 0.01)
	th, om := 0.8, 0.0
	for k := 0; k < 1500; k++ {
		// Truth has unmodeled process noise.
		th, om = th+om*dt, om-g*math.Sin(th)*dt+0.002*rng.NormFloat64()
		if err := filtered.Step(mat.Vec(th + 0.05*rng.NormFloat64())); err != nil {
			t.Fatal(err)
		}
		dead.Predict()
	}
	errF := math.Abs(filtered.State().At(0, 0) - th)
	errD := math.Abs(dead.State().At(0, 0) - th)
	if errF >= errD {
		t.Fatalf("EKF err %v >= dead-reckoning err %v", errF, errD)
	}
}

func TestEKFConfigValidation(t *testing.T) {
	ok := EKFConfig{
		F:    func(_ int, x *mat.Matrix) *mat.Matrix { return x },
		FJac: func(_ int, _ *mat.Matrix) *mat.Matrix { return mat.Identity(1) },
		H:    func(x *mat.Matrix) *mat.Matrix { return x },
		HJac: func(_ int, _ *mat.Matrix) *mat.Matrix { return mat.Identity(1) },
		Q:    mat.Diag(0.1), R: mat.Diag(0.1), X0: mat.Vec(0),
	}
	if _, err := NewEKF(ok); err != nil {
		t.Fatalf("valid EKF config rejected: %v", err)
	}
	bad := ok
	bad.F = nil
	if _, err := NewEKF(bad); err == nil {
		t.Fatal("EKF accepted nil F")
	}
	bad = ok
	bad.Q = nil
	if _, err := NewEKF(bad); err == nil {
		t.Fatal("EKF accepted nil Q")
	}
	bad = ok
	bad.X0 = mat.New(1, 2)
	if _, err := NewEKF(bad); err == nil {
		t.Fatal("EKF accepted non-vector X0")
	}
	bad = ok
	bad.Q = mat.Identity(3)
	if _, err := NewEKF(bad); err == nil {
		t.Fatal("EKF accepted mismatched Q")
	}
}

func TestEKFMeasurementDimError(t *testing.T) {
	e := pendulumEKF(0.01, 9.8, 1e-6, 0.01)
	e.Predict()
	if err := e.Correct(mat.Vec(1, 2)); err == nil {
		t.Fatal("EKF.Correct accepted wrong-dimension measurement")
	}
}
