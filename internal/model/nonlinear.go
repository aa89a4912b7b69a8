package model

import (
	"fmt"
	"math"

	"streamkf/internal/kalman"
	"streamkf/internal/mat"
)

// Nonlinear describes a non-linear stream model for the extended Kalman
// filter (paper §3.2 cases 2–3, future work item 3): state propagation
// and/or measurement are arbitrary differentiable functions, linearized
// at the current estimate.
type Nonlinear struct {
	// Name identifies the model.
	Name string
	// Dim is the number of state variables.
	Dim int
	// MeasDim is the number of measured variables.
	MeasDim int
	// F propagates the state: x_{k+1} = F(k, x_k).
	F kalman.StateFunc
	// FJac is ∂F/∂x at (k, x).
	FJac kalman.JacobianFunc
	// H maps state to expected measurement.
	H kalman.MeasFunc
	// HJac is ∂H/∂x at x.
	HJac kalman.JacobianFunc
	// Q is the process noise covariance (Dim x Dim).
	Q *mat.Matrix
	// R is the measurement noise covariance (MeasDim x MeasDim).
	R *mat.Matrix
	// Init bootstraps the state from the first measurement.
	Init func(z []float64) *mat.Matrix
	// P0 is the initial covariance; nil uses the EKF default.
	P0 *mat.Matrix
}

// Validate checks dimensional consistency where statically possible.
func (m Nonlinear) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("model: nonlinear model has empty name")
	}
	if m.Dim <= 0 || m.MeasDim <= 0 {
		return fmt.Errorf("model %s: non-positive dims %d/%d", m.Name, m.Dim, m.MeasDim)
	}
	if m.F == nil || m.FJac == nil || m.H == nil || m.HJac == nil || m.Init == nil {
		return fmt.Errorf("model %s: missing F/FJac/H/HJac/Init", m.Name)
	}
	if m.Q == nil || m.Q.Rows() != m.Dim || m.Q.Cols() != m.Dim {
		return fmt.Errorf("model %s: Q must be %dx%d", m.Name, m.Dim, m.Dim)
	}
	if m.R == nil || m.R.Rows() != m.MeasDim || m.R.Cols() != m.MeasDim {
		return fmt.Errorf("model %s: R must be %dx%d", m.Name, m.MeasDim, m.MeasDim)
	}
	return nil
}

// NewEKF instantiates an extended Kalman filter bootstrapped from z0.
func (m Nonlinear) NewEKF(z0 []float64) (*kalman.EKF, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(z0) != m.MeasDim {
		return nil, fmt.Errorf("model %s: initial measurement has %d values, want %d", m.Name, len(z0), m.MeasDim)
	}
	return kalman.NewEKF(kalman.EKFConfig{
		F: m.F, FJac: m.FJac, H: m.H, HJac: m.HJac,
		Q: m.Q, R: m.R,
		X0: m.Init(z0), P0: m.P0,
	})
}

// Pendulum returns a reference non-linear model: a damped pendulum with
// state [angle, angular velocity], measuring the angle. The propagation
// uses semi-implicit (symplectic) Euler, which does not gain energy
// numerically the way explicit Euler does:
//
//	ω' = (1 − damping·dt)·ω − (g/L)·sin(θ)·dt
//	θ' = θ + ω'·dt
//
// It is non-linear in θ. A useful test vehicle for the EKF-based DKF.
func Pendulum(dt, gOverL, damping, q, r float64) Nonlinear {
	return Nonlinear{
		Name:    "pendulum",
		Dim:     2,
		MeasDim: 1,
		F: func(_ int, x *mat.Matrix) *mat.Matrix {
			th, om := x.At(0, 0), x.At(1, 0)
			om2 := float64((1-float64(damping*dt))*om) - float64(gOverL*math.Sin(th)*dt)
			return mat.Vec(th+float64(om2*dt), om2)
		},
		FJac: func(_ int, x *mat.Matrix) *mat.Matrix {
			th := x.At(0, 0)
			// ∂ω'/∂θ = −g·dt·cosθ, ∂ω'/∂ω = 1 − damping·dt,
			// ∂θ'/∂θ = 1 − g·dt²·cosθ, ∂θ'/∂ω = (1 − damping·dt)·dt.
			dOmDth := -gOverL * math.Cos(th) * dt
			dOmDom := 1 - float64(damping*dt)
			return mat.FromRows([][]float64{
				{1 + float64(dOmDth*dt), dOmDom * dt},
				{dOmDth, dOmDom},
			})
		},
		H: func(x *mat.Matrix) *mat.Matrix { return mat.Vec(x.At(0, 0)) },
		HJac: func(_ int, _ *mat.Matrix) *mat.Matrix {
			return mat.FromRows([][]float64{{1, 0}})
		},
		Q: mat.ScaledIdentity(2, q),
		R: mat.Diag(r),
		Init: func(z []float64) *mat.Matrix {
			return mat.Vec(z[0], 0)
		},
	}
}
