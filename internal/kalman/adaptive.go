package kalman

import (
	"fmt"
	"math"

	"streamkf/internal/mat"
)

// InnovationWindow is the cursor of a sliding window over a filter's most
// recent innovations. The window's storage is its owner's — a flat ring
// of len(buf)/m slots of m values each, handed to every call — so a
// server can keep a stream's window in the same block as its filter and
// pay eight bytes of header for it. The zero value is an empty window.
type InnovationWindow struct {
	next   int32 // the slot the next observation takes
	filled bool  // the ring has wrapped
}

// Observe records one innovation (m = len(d) values) into buf.
func (w *InnovationWindow) Observe(buf, d []float64) {
	at := int(w.next) * len(d)
	copy(buf[at:at+len(d)], d)
	if w.next++; int(w.next)*len(d) == len(buf) {
		w.next, w.filled = 0, true
	}
}

// Reset empties the window.
func (w *InnovationWindow) Reset() { *w = InnovationWindow{} }

// Ready reports whether a full window of innovations has been observed.
func (w *InnovationWindow) Ready() bool { return w.filled }

// span returns how many innovations buf holds, the slot of the oldest
// one, and the window size.
func (w *InnovationWindow) span(buf []float64, m int) (count, oldest, window int) {
	window = len(buf) / m
	if w.filled {
		return window, int(w.next), window
	}
	return int(w.next), 0, window
}

// Snapshot returns the observed innovations in time order, oldest first,
// each as a fresh value slice. Together with Restore it lets a checkpoint
// persist the whiteness state of a stream's health monitor, so a
// recovered server reports the same diagnostics bit for bit.
func (w *InnovationWindow) Snapshot(buf []float64, m int) [][]float64 {
	count, oldest, window := w.span(buf, m)
	out := make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		at := (oldest + i) % window * m
		out = append(out, append([]float64(nil), buf[at:at+m]...))
	}
	return out
}

// Restore refills the window from a Snapshot, oldest first. More
// innovations than the window holds keeps only the most recent windowful,
// matching what observing them live would have left. An innovation of the
// wrong length fails the call before anything is touched.
func (w *InnovationWindow) Restore(buf []float64, m int, innovs [][]float64) error {
	for _, v := range innovs {
		if len(v) != m {
			return fmt.Errorf("kalman: restored innovation has %d values, want %d", len(v), m)
		}
	}
	if window := len(buf) / m; len(innovs) > window {
		innovs = innovs[len(innovs)-window:]
		// The ring has wrapped, exactly as live observation would have.
	}
	w.Reset()
	for _, v := range innovs {
		w.Observe(buf, v)
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
func (w *InnovationWindow) Whiteness(buf []float64, m int) (rho float64, ok bool) {
	count, oldest, window := w.span(buf, m)
	if count < 2 {
		return 0, false
	}
	var num, den float64
	var prev []float64
	for i := 0; i < count; i++ {
		at := (oldest + i) % window * m
		d := buf[at : at+m]
		den += dot(d, d)
		if prev != nil {
			num += dot(prev, d)
		}
		prev = d
	}
	if den == 0 {
		return 0, false
	}
	return num / den, w.filled
}

// WhitenessBound returns the ±2/√window acceptance band for Whiteness:
// |ρ₁| beyond the bound flags a mis-modeled stream.
func WhitenessBound(window int) float64 { return 2 / math.Sqrt(float64(window)) }

// NoiseEstimator estimates the measurement noise covariance R online from
// the innovation sequence (paper future work item 6: "robustness of the KF
// when the statistics of the noise are not known").
//
// Under a correct model the innovation d_k = z_k - H x_k^- has covariance
// S = H P^- H^T + R, so a windowed sample covariance of the innovations,
// Ĉ, yields R̂ = Ĉ - H P^- H^T. The estimate is floored element-wise on
// the diagonal to keep R̂ positive definite.
type NoiseEstimator struct {
	win    InnovationWindow
	m      int
	window int
	floor  float64
	buf    []float64 // ring of window innovations, m values each; allocated by the first Observe
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
// block allocated on first use, so an estimator that never observes pays
// nothing and a warm one observes without allocating.
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
	n.win.Observe(n.buf, d)
}

// ObserveFilter records f's most recent innovation (the one produced by
// its last Correct), without allocating once the ring exists. It
// reports whether an innovation was available.
func (n *NoiseEstimator) ObserveFilter(f *Filter) bool {
	d := f.LastInnovation()
	if d == nil {
		return false
	}
	n.observe(d)
	return true
}

// Ready reports whether a full window of innovations has been observed.
func (n *NoiseEstimator) Ready() bool { return n.win.Ready() }

// Whiteness is InnovationWindow.Whiteness over the estimator's own ring.
func (n *NoiseEstimator) Whiteness() (rho float64, ok bool) { return n.win.Whiteness(n.buf, n.m) }

// WhitenessBound is the package function for the estimator's window.
func (n *NoiseEstimator) WhitenessBound() float64 { return WhitenessBound(n.window) }

// dot is mat.Dot on bare vectors: accumulation from +0 in index order.
func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// EstimateR returns R̂ given the filter's current a priori covariance
// term H P^- H^T. Call only when Ready.
func (n *NoiseEstimator) EstimateR(hpht *mat.Matrix) *mat.Matrix {
	if !n.Ready() {
		panic("kalman: NoiseEstimator.EstimateR before window filled")
	}
	// Sample covariance of innovations (mean assumed ~0 under whiteness).
	c := mat.New(n.m, n.m)
	for i := 0; i < n.window; i++ {
		d := mat.FromSlice(n.m, 1, n.buf[i*n.m:(i+1)*n.m])
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
	h := mat.FromSlice(int(a.m), int(a.n), a.seg(segH))
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
