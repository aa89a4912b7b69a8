// Package model provides the catalogue of stream models from Section 4 of
// the paper: the constant model (Eq. 15), the linear constant-velocity
// model (Eq. 14), higher-order constant-acceleration and jerk models (the
// [P, Ṗ, P̈, P⃛] generalization of §4.1), the sinusoidal model for periodic
// loads (Eq. 17), and the one-state smoothing model whose process noise is
// the user-supplied smoothing factor F (§4.3).
//
// A Model bundles everything the Dual Kalman Filter protocol needs to
// instantiate matched filters at the server and the source: the transition
// function φ_k, measurement matrix H, noise covariances Q and R, and a rule
// for bootstrapping the initial state from the first measurement.
package model

import (
	"fmt"

	"streamkf/internal/kalman"
	"streamkf/internal/mat"
)

// Model describes a linear (possibly time-varying) stream model.
type Model struct {
	// Name identifies the model in logs, metrics and wire messages.
	Name string
	// Dim is n, the number of state variables.
	Dim int
	// MeasDim is m, the number of measured variables.
	MeasDim int
	// Phi returns the state transition matrix for step k.
	Phi kalman.TransitionFunc
	// TimeInvariant declares that Phi(k) is Phi(0) for every k
	// (kalman.Config.TimeInvariant); the catalogue's static models do.
	TimeInvariant bool
	// H is the m x n measurement matrix.
	H *mat.Matrix
	// Q is the n x n process noise covariance.
	Q *mat.Matrix
	// R is the m x m measurement noise covariance.
	R *mat.Matrix
	// Init maps the first measurement to an initial state estimate.
	Init func(z []float64) *mat.Matrix
	// InitInto, when set, is Init writing into x — Dim zeroed values —
	// instead of allocating the vector, and is what NewFilter and
	// InitFilter then use: a stream bootstraps without garbage. The
	// catalogue's models set both from one rule (withInit).
	InitInto func(x, z []float64)
	// P0 is the initial covariance; nil lets the filter default apply.
	P0 *mat.Matrix
}

// Validate checks internal dimensional consistency.
func (m Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("model: empty name")
	}
	if m.Dim <= 0 || m.MeasDim <= 0 {
		return fmt.Errorf("model %s: non-positive dims %d/%d", m.Name, m.Dim, m.MeasDim)
	}
	if m.Phi == nil || m.H == nil || m.Q == nil || m.R == nil || m.Init == nil {
		return fmt.Errorf("model %s: missing Phi/H/Q/R/Init", m.Name)
	}
	if phi := m.Phi(0); phi.Rows() != m.Dim || phi.Cols() != m.Dim {
		return fmt.Errorf("model %s: Phi(0) is %dx%d, want %dx%d", m.Name, phi.Rows(), phi.Cols(), m.Dim, m.Dim)
	}
	if m.H.Rows() != m.MeasDim || m.H.Cols() != m.Dim {
		return fmt.Errorf("model %s: H is %dx%d, want %dx%d", m.Name, m.H.Rows(), m.H.Cols(), m.MeasDim, m.Dim)
	}
	if m.Q.Rows() != m.Dim || m.Q.Cols() != m.Dim {
		return fmt.Errorf("model %s: Q is %dx%d, want %dx%d", m.Name, m.Q.Rows(), m.Q.Cols(), m.Dim, m.Dim)
	}
	if m.R.Rows() != m.MeasDim || m.R.Cols() != m.MeasDim {
		return fmt.Errorf("model %s: R is %dx%d, want %dx%d", m.Name, m.R.Rows(), m.R.Cols(), m.MeasDim, m.MeasDim)
	}
	return nil
}

// withInit sets both forms of the bootstrap rule from its in-place form.
func (m Model) withInit(into func(x, z []float64)) Model {
	dim := m.Dim
	m.InitInto = into
	m.Init = func(z []float64) *mat.Matrix {
		x := mat.New(dim, 1)
		into(x.RawData(), z)
		return x
	}
	return m
}

// BlockLen returns how many float64s InitFilter's block must hold.
func (m Model) BlockLen() int { return kalman.BlockLen(m.Dim, m.MeasDim, false) }

// NewFilter instantiates a Kalman filter for this model, bootstrapped
// from the first measurement z0.
func (m Model) NewFilter(z0 []float64) (*kalman.Filter, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	f := new(kalman.Filter)
	if err := m.InitFilter(f, make([]float64, m.BlockLen()), z0); err != nil {
		return nil, err
	}
	return f, nil
}

// InitFilter is NewFilter in place: it (re)builds f over block — at least
// BlockLen floats, the caller's to keep valid while f is used; see
// kalman.Filter.Init — bootstrapped from z0, and allocates nothing when
// the model has InitInto. A nil z0 leaves the state zero: a placeholder
// its caller bootstraps or restores later. A failed call leaves f and
// block as they were. The model is the caller's to have validated.
func (m Model) InitFilter(f *kalman.Filter, block, z0 []float64) error {
	if z0 != nil && len(z0) != m.MeasDim {
		return fmt.Errorf("model %s: initial measurement has %d values, want %d", m.Name, len(z0), m.MeasDim)
	}
	if err := f.Init(block, kalman.Config{Phi: m.Phi, H: m.H, Q: m.Q, R: m.R, P0: m.P0, TimeInvariant: m.TimeInvariant}); err != nil {
		return err
	}
	x := block[:m.Dim] // the filter's state segment leads its block
	clear(x)
	switch {
	case z0 == nil:
	case m.InitInto != nil:
		m.InitInto(x, z0)
	default:
		copy(x, m.Init(z0).RawData())
	}
	return nil
}
