package model

import (
	"math"

	"streamkf/internal/kalman"
	"streamkf/internal/mat"
)

// Constant returns the paper's constant model (Eq. 15): the best
// prediction for the future is the latest value. With axes measured
// dimensions the state is the measurement itself and φ = I. This model is
// "conceptually similar to the cached approximation value model" (§5.1)
// and serves as the DKF worst case.
func Constant(axes int, q, r float64) Model {
	return Model{
		Name:    "constant",
		Dim:     axes,
		MeasDim: axes,
		Phi:     kalman.Static(mat.Identity(axes)),
		H:       mat.Identity(axes),
		Q:       mat.ScaledIdentity(axes, q),
		R:       mat.ScaledIdentity(axes, r),

		TimeInvariant: true, // Φ = I at every step
	}.withInit(func(x, z []float64) { copy(x, z) })
}

// Linear returns the constant-velocity model of §4.1 (Eq. 13/14/16):
// per measured axis the state holds [position, rate-of-change] with
//
//	p_k = p_{k-1} + ṗ_{k-1}·δt,   ṗ_k = ṗ_{k-1}.
//
// State ordering follows the paper: [x, ẋ, y, ẏ, ...]. Only positions are
// measured. dt is the sampling interval δt.
func Linear(axes int, dt, q, r float64) Model {
	return polynomial("linear", axes, 2, dt, q, r)
}

// Acceleration returns a constant-acceleration model: per axis the state
// is [p, ṗ, p̈] with the second-order Taylor propagation. Useful for
// "jerky" trajectories per §4.1's generalization discussion.
func Acceleration(axes int, dt, q, r float64) Model {
	return polynomial("acceleration", axes, 3, dt, q, r)
}

// Jerk returns the third-order model [P, Ṗ, P̈, P⃛] with transition
// P_k = P_{k-1} + Ṗδt + ½P̈δt² + ⅙P⃛δt³, exactly the generalization
// spelled out in §4.1.
func Jerk(axes int, dt, q, r float64) Model {
	return polynomial("jerk", axes, 4, dt, q, r)
}

// polynomial builds an order-state Taylor-series model: order=2 is
// constant velocity, 3 constant acceleration, 4 constant jerk.
func polynomial(name string, axes, order int, dt, q, r float64) Model {
	dim := axes * order
	block := mat.Identity(order)
	// block[i][j] = dt^(j-i) / (j-i)! for j >= i.
	for i := 0; i < order; i++ {
		f := 1.0
		for j := i + 1; j < order; j++ {
			f *= dt / float64(j-i)
			block.Set(i, j, f)
		}
	}
	phi := mat.New(dim, dim)
	h := mat.New(axes, dim)
	for a := 0; a < axes; a++ {
		base := a * order
		for i := 0; i < order; i++ {
			for j := 0; j < order; j++ {
				phi.Set(base+i, base+j, block.At(i, j))
			}
		}
		h.Set(a, base, 1)
	}
	return Model{
		Name:    name,
		Dim:     dim,
		MeasDim: axes,
		Phi:     kalman.Static(phi),
		H:       h,
		Q:       mat.ScaledIdentity(dim, q),
		R:       mat.ScaledIdentity(axes, r),

		TimeInvariant: true, // the Taylor block at dt at every step
	}.withInit(func(x, z []float64) {
		for a := 0; a < axes; a++ {
			x[a*order] = z[a]
		}
	})
}

// Sinusoidal returns the two-state periodic model of §4.2 (Eq. 17):
//
//	x_k = x_{k-1} + γ·cos(ωk + θ)·s_{k-1}
//	s_k = s_{k-1}
//
// where x is the load value and s the rate of change of the sinusoidal
// component. The transition matrix is time-varying through k. Parameters
// follow the paper's experiment: ω = 18/π, θ = π for the power-load data.
func Sinusoidal(omega, theta, gamma, q, r float64) Model {
	return Model{
		Name:    "sinusoidal",
		Dim:     2,
		MeasDim: 1,
		Phi: func(k int) *mat.Matrix {
			return mat.FromRows([][]float64{
				{1, gamma * math.Cos(float64(omega*float64(k))+theta)},
				{0, 1},
			})
		},
		H: mat.FromRows([][]float64{{1, 0}}),
		Q: mat.ScaledIdentity(2, q),
		R: mat.Diag(r),
	}.withInit(func(x, z []float64) { x[0], x[1] = z[0], 1 })
}

// Smoothing returns the one-state smoothing model of §4.3: φ = [1], and
// the process noise covariance is the user smoothing factor F. Small F
// means the filter trusts its flat model and heavily smooths the input;
// large F lets the output follow the raw data. r is the assumed
// measurement noise variance.
func Smoothing(f, r float64) Model {
	return Model{
		Name:    "smoothing",
		Dim:     1,
		MeasDim: 1,
		Phi:     kalman.Static(mat.Identity(1)),
		H:       mat.Identity(1),
		Q:       mat.Diag(f),
		R:       mat.Diag(r),

		TimeInvariant: true, // φ = [1] at every step
	}.withInit(func(x, z []float64) { x[0] = z[0] })
}

// Custom wraps caller-supplied matrices into a Model. phi may be
// time-varying. init may be nil, in which case measured dimensions are
// copied into the leading state entries (requires Dim >= MeasDim).
func Custom(name string, phi kalman.TransitionFunc, h, q, r *mat.Matrix, init func(z []float64) *mat.Matrix) Model {
	m := Model{Name: name, Dim: q.Rows(), MeasDim: r.Rows(), Phi: phi, H: h, Q: q, R: r, Init: init}
	if init == nil {
		lead := min(m.MeasDim, m.Dim)
		m = m.withInit(func(x, z []float64) { copy(x, z[:lead]) })
	}
	return m
}
