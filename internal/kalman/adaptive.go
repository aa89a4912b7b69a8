package kalman

import (
	"fmt"
	"math"

	"streamkf/internal/mat"
)

// NoiseEstimator estimates the measurement noise covariance R online from
// the innovation sequence (paper future work item 6: "robustness of the KF
// when the statistics of the noise are not known").
//
// Under a correct model the innovation d_k = z_k - H x_k^- has covariance
// S = H P^- H^T + R, so a windowed sample covariance of the innovations,
// Ĉ, yields R̂ = Ĉ - H P^- H^T. The estimate is floored element-wise on
// the diagonal to keep R̂ positive definite.
type NoiseEstimator struct {
	m      int
	window int
	floor  float64
	buf    []float64 // ring of window innovations, m values each; allocated by the first Observe
	next   int
	filled bool
}

// NewNoiseEstimator returns an estimator for m-dimensional innovations
// using a sliding window of the given size; diagonal entries of the
// estimate are floored at floor (> 0).
func NewNoiseEstimator(m, window int, floor float64) (*NoiseEstimator, error) {
	if m <= 0 {
		return nil, fmt.Errorf("kalman: NewNoiseEstimator m = %d, want > 0", m)
	}
	if window < 2 {
		return nil, fmt.Errorf("kalman: NewNoiseEstimator window = %d, want >= 2", window)
	}
	if floor <= 0 {
		return nil, fmt.Errorf("kalman: NewNoiseEstimator floor = %v, want > 0", floor)
	}
	return &NoiseEstimator{m: m, window: window, floor: floor}, nil
}

// Observe records one innovation vector (m x 1). The ring is one flat
// block allocated on first use, so a stream that never corrects pays
// nothing and a warm estimator observes without allocating — the
// property that lets the DSMS server run one estimator per stream on the
// ingest hot path.
func (n *NoiseEstimator) Observe(innov *mat.Matrix) {
	if innov.Rows() != n.m || innov.Cols() != 1 {
		panic(fmt.Sprintf("kalman: NoiseEstimator.Observe innovation is %dx%d, want %dx1", innov.Rows(), innov.Cols(), n.m))
	}
	n.observe(innov.RawData())
}

func (n *NoiseEstimator) observe(d []float64) {
	if n.buf == nil {
		n.buf = make([]float64, n.window*n.m)
	}
	copy(n.slot(n.next), d)
	n.next++
	if n.next == n.window {
		n.next = 0
		n.filled = true
	}
}

// slot returns ring entry i.
func (n *NoiseEstimator) slot(i int) []float64 { return n.buf[i*n.m : (i+1)*n.m] }

// ObserveFilter records f's most recent innovation (the one produced by
// its last Correct), without allocating once the ring exists. It
// reports whether an innovation was available.
func (n *NoiseEstimator) ObserveFilter(f *Filter) bool {
	if !f.hasGain {
		return false
	}
	n.observe(f.seg(segInnov))
	return true
}

// Ready reports whether a full window of innovations has been observed.
func (n *NoiseEstimator) Ready() bool { return n.filled }

// count returns how many innovations the ring holds and the slot of the
// oldest one.
func (n *NoiseEstimator) count() (count, oldest int) {
	if n.filled {
		return n.window, n.next
	}
	return n.next, 0
}

// Window returns the observed innovations in time order, oldest first,
// each as a fresh value slice. Together with RestoreWindow it lets a
// checkpoint persist the whiteness state of a stream's health monitor,
// so a recovered server reports the same diagnostics bit for bit.
func (n *NoiseEstimator) Window() [][]float64 {
	count, oldest := n.count()
	out := make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, append([]float64(nil), n.slot((oldest+i)%n.window)...))
	}
	return out
}

// RestoreWindow refills the estimator from a Window snapshot, oldest
// first. More innovations than the window holds keeps only the most
// recent windowful, matching what observing them live would have left.
func (n *NoiseEstimator) RestoreWindow(innovs [][]float64) error {
	if len(innovs) > n.window {
		innovs = innovs[len(innovs)-n.window:]
		// The ring has wrapped, exactly as live observation would have.
	}
	n.next = 0
	n.filled = false
	for _, v := range innovs {
		if len(v) != n.m {
			return fmt.Errorf("kalman: RestoreWindow innovation has %d values, want %d", len(v), n.m)
		}
		n.observe(v)
	}
	return nil
}

// Whiteness returns the lag-1 autocorrelation of the observed innovation
// sequence,
//
//	ρ₁ = Σ_k d_k · d_{k-1} / Σ_k ‖d_k‖²,
//
// over the current window in time order. Under a correct model the
// innovations are white, so ρ₁ ≈ 0 within ±2/√window; a persistent bias
// means the installed model is mis-specified for the stream (the
// server-side filter-health signal, paper §3.2). ok is false until the
// window has filled.
func (n *NoiseEstimator) Whiteness() (rho float64, ok bool) {
	count, oldest := n.count()
	if count < 2 {
		return 0, false
	}
	var num, den float64
	var prev []float64
	for i := 0; i < count; i++ {
		d := n.slot((oldest + i) % n.window)
		den += dot(d, d)
		if prev != nil {
			num += dot(prev, d)
		}
		prev = d
	}
	if den == 0 {
		return 0, false
	}
	return num / den, n.filled
}

// dot is mat.Dot on bare vectors: accumulation from +0 in index order.
func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// WhitenessBound returns the ±2/√window acceptance band for Whiteness:
// |ρ₁| beyond the bound flags a mis-modeled stream.
func (n *NoiseEstimator) WhitenessBound() float64 {
	return 2 / math.Sqrt(float64(n.window))
}

// EstimateR returns R̂ given the filter's current a priori covariance
// term H P^- H^T. Call only when Ready.
func (n *NoiseEstimator) EstimateR(hpht *mat.Matrix) *mat.Matrix {
	if !n.filled {
		panic("kalman: NoiseEstimator.EstimateR before window filled")
	}
	// Sample covariance of innovations (mean assumed ~0 under whiteness).
	c := mat.New(n.m, n.m)
	for i := 0; i < n.window; i++ {
		d := mat.FromSlice(n.m, 1, n.slot(i))
		c = mat.AddInPlace(mat.Mul(d, mat.Transpose(d)), c)
	}
	c = mat.Scale(1/float64(n.window), c)
	r := mat.Sub(c, hpht)
	for i := 0; i < n.m; i++ {
		if r.At(i, i) < n.floor {
			r.Set(i, i, n.floor)
		}
	}
	return mat.Symmetrize(r)
}

// AdaptiveFilter wraps a Filter and retunes R every window steps from the
// observed innovation sequence.
type AdaptiveFilter struct {
	*Filter
	est   *NoiseEstimator
	every int
	count int
}

// NewAdaptive wraps f with innovation-based R estimation over the given
// window. Retuning happens each time another `window` corrections have
// been observed.
func NewAdaptive(f *Filter, window int, floor float64) (*AdaptiveFilter, error) {
	est, err := NewNoiseEstimator(f.MeasDim(), window, floor)
	if err != nil {
		return nil, err
	}
	return &AdaptiveFilter{Filter: f, est: est, every: window}, nil
}

// Correct corrects the underlying filter, records the innovation, and
// periodically re-estimates R.
func (a *AdaptiveFilter) Correct(z *mat.Matrix) error {
	// H P^- H^T must be captured before the correction consumes P^-.
	h := mat.FromSlice(a.m, a.n, a.seg(segH))
	hpht := mat.Mul3(h, a.Cov(), mat.Transpose(h))
	if err := a.Filter.Correct(z); err != nil {
		return err
	}
	a.est.ObserveFilter(a.Filter)
	a.count++
	if a.est.Ready() && a.count%a.every == 0 {
		a.SetNoise(nil, a.est.EstimateR(hpht))
	}
	return nil
}

// Step runs Predict then the adaptive Correct.
func (a *AdaptiveFilter) Step(z *mat.Matrix) error {
	a.Predict()
	return a.Correct(z)
}
