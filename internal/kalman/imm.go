package kalman

import (
	"fmt"
	"math"

	"streamkf/internal/mat"
)

// IMM is an Interacting Multiple Model estimator: a bank of Kalman
// filters over different dynamics hypotheses, blended by Bayesian model
// probabilities with Markov switching between hypotheses.
//
// Where the hard switching of internal/adapt reinstalls one model when a
// challenger wins decisively, the IMM maintains a soft mixture at every
// step: each filter is re-initialized from a probability-weighted mix of
// the bank (the "interaction"), updated, and scored by its innovation
// likelihood. The combined estimate outperforms any single model during
// regime transitions, at N× the filtering cost. All candidate models
// must share the same state and measurement dimensions.
type IMM struct {
	filters []*Filter
	mu      []float64   // model probabilities
	trans   *mat.Matrix // Markov model-transition matrix (row-stochastic)
	n       int         // state dim
	m       int         // measurement dim
}

// IMMConfig configures an IMM estimator.
type IMMConfig struct {
	// Filters is the model bank. Each filter's state must have the same
	// dimension and measurement shape. The filters are adopted, not
	// copied: do not use them directly afterwards.
	Filters []*Filter
	// Trans is the model transition probability matrix: Trans[i][j] is
	// the prior probability of switching from model i to model j between
	// steps. Rows must sum to 1. If nil, a sticky default is used:
	// 0.95 self, the rest spread evenly.
	Trans *mat.Matrix
	// Prior is the initial model probability vector; nil means uniform.
	Prior []float64
}

// NewIMM constructs an IMM estimator.
func NewIMM(cfg IMMConfig) (*IMM, error) {
	k := len(cfg.Filters)
	if k < 2 {
		return nil, fmt.Errorf("kalman: IMM needs >= 2 filters, got %d", k)
	}
	n := cfg.Filters[0].StateDim()
	m := cfg.Filters[0].MeasDim()
	for i, f := range cfg.Filters {
		if f == nil {
			return nil, fmt.Errorf("kalman: IMM filter %d is nil", i)
		}
		if f.StateDim() != n || f.MeasDim() != m {
			return nil, fmt.Errorf("kalman: IMM filter %d has dims %d/%d, want %d/%d", i, f.StateDim(), f.MeasDim(), n, m)
		}
	}
	trans := cfg.Trans
	if trans == nil {
		trans = mat.New(k, k)
		off := 0.05 / float64(k-1)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i == j {
					trans.Set(i, j, 0.95)
				} else {
					trans.Set(i, j, off)
				}
			}
		}
	}
	if trans.Rows() != k || trans.Cols() != k {
		return nil, fmt.Errorf("kalman: IMM transition matrix is %dx%d, want %dx%d", trans.Rows(), trans.Cols(), k, k)
	}
	for i := 0; i < k; i++ {
		var row float64
		for j := 0; j < k; j++ {
			if trans.At(i, j) < 0 {
				return nil, fmt.Errorf("kalman: IMM transition [%d][%d] negative", i, j)
			}
			row += trans.At(i, j)
		}
		if math.Abs(row-1) > 1e-9 {
			return nil, fmt.Errorf("kalman: IMM transition row %d sums to %v, want 1", i, row)
		}
	}
	mu := cfg.Prior
	if mu == nil {
		mu = make([]float64, k)
		for i := range mu {
			mu[i] = 1 / float64(k)
		}
	}
	if len(mu) != k {
		return nil, fmt.Errorf("kalman: IMM prior has %d entries, want %d", len(mu), k)
	}
	var sum float64
	for i, p := range mu {
		if p < 0 {
			return nil, fmt.Errorf("kalman: IMM prior[%d] negative", i)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("kalman: IMM prior sums to %v, want 1", sum)
	}
	muCopy := make([]float64, k)
	copy(muCopy, mu)
	return &IMM{filters: cfg.Filters, mu: muCopy, trans: trans.Clone(), n: n, m: m}, nil
}

// Step runs one full IMM cycle with measurement z: interaction (mixing),
// per-model predict+correct, likelihood-based probability update, and
// combination.
func (im *IMM) Step(z *mat.Matrix) error {
	k := len(im.filters)

	// 1. Mixing probabilities: c_j = Σ_i trans[i][j] μ_i;
	//    μ_{i|j} = trans[i][j] μ_i / c_j.
	c := make([]float64, k)
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			c[j] += float64(im.trans.At(i, j) * im.mu[i])
		}
	}
	mixedX := make([]*mat.Matrix, k)
	mixedP := make([]*mat.Matrix, k)
	for j := 0; j < k; j++ {
		if c[j] < 1e-300 {
			// Dead hypothesis: keep its own state.
			mixedX[j] = im.filters[j].State()
			mixedP[j] = im.filters[j].Cov()
			continue
		}
		x := mat.New(im.n, 1)
		for i := 0; i < k; i++ {
			w := im.trans.At(i, j) * im.mu[i] / c[j]
			if w == 0 {
				continue
			}
			x = mat.AddInPlace(mat.Scale(w, im.filters[i].State()), x)
		}
		p := mat.New(im.n, im.n)
		for i := 0; i < k; i++ {
			w := im.trans.At(i, j) * im.mu[i] / c[j]
			if w == 0 {
				continue
			}
			dx := mat.Sub(im.filters[i].State(), x)
			spread := mat.AddInPlace(mat.Mul(dx, mat.Transpose(dx)), im.filters[i].Cov())
			p = mat.AddInPlace(mat.Scale(w, spread), p)
		}
		mixedX[j] = x
		mixedP[j] = mat.Symmetrize(p)
	}

	// 2. Per-model prediction and correction from the mixed initial
	// conditions, scoring each by its innovation likelihood.
	like := make([]float64, k)
	for j := 0; j < k; j++ {
		f := im.filters[j]
		f.setMoments("IMM mixing", mixedX[j], mixedP[j])
		f.Predict()
		ll, err := f.LogLikelihood(z)
		if err != nil {
			return fmt.Errorf("kalman: IMM model %d: %w", j, err)
		}
		like[j] = ll
		if err := f.Correct(z); err != nil {
			return fmt.Errorf("kalman: IMM model %d: %w", j, err)
		}
	}

	// 3. Probability update: μ_j ∝ c_j · L_j, computed in log space for
	// numerical safety.
	maxLL := math.Inf(-1)
	for _, ll := range like {
		if ll > maxLL {
			maxLL = ll
		}
	}
	var norm float64
	for j := 0; j < k; j++ {
		im.mu[j] = c[j] * math.Exp(like[j]-maxLL)
		norm += im.mu[j]
	}
	if norm <= 0 {
		return fmt.Errorf("kalman: IMM probabilities collapsed to zero")
	}
	for j := range im.mu {
		im.mu[j] /= norm
	}
	return nil
}

// State returns the probability-weighted combined state estimate.
func (im *IMM) State() *mat.Matrix {
	x := mat.New(im.n, 1)
	for j, f := range im.filters {
		x = mat.AddInPlace(mat.Scale(im.mu[j], f.State()), x)
	}
	return x
}

// ModelProbabilities returns a copy of the current model probabilities.
func (im *IMM) ModelProbabilities() []float64 {
	out := make([]float64, len(im.mu))
	copy(out, im.mu)
	return out
}

// MostLikely returns the index of the currently most probable model.
func (im *IMM) MostLikely() int {
	best := 0
	for j := range im.mu {
		if im.mu[j] > im.mu[best] {
			best = j
		}
	}
	return best
}
