package kalman

import "math"

// WhitenessWindow is the memory of the whiteness statistic, in
// innovations: the sums decay by λ = 1 − 1/WhitenessWindow a step, and ρ₁
// is ready once that many innovations have been observed.
const WhitenessWindow = 16

const whitenessDecay = 1 - 1.0/WhitenessWindow

// InnovationSums is an exponentially weighted lag-1 autocorrelation of a
// filter's innovations. Its floats are its owner's — m+2 of them, [num,
// den, d₋₁…], handed to every call — so a server keeps a stream's in the
// block of its filter and only the count in its header. The zero value,
// over zeroed floats, has observed nothing.
type InnovationSums struct {
	N int // innovations observed since the last reset, up to WhitenessWindow
}

// Observe folds one innovation d (m values) into buf:
//
//	num ← λ·num + d·d₋₁,   den ← λ·den + ‖d‖².
//
// A sum that is no longer finite (a NaN, an infinity or an overflowing
// innovation) resets the statistic, which a window would have flushed
// after WhitenessWindow more innovations but a sum would keep for good.
func (w *InnovationSums) Observe(buf, d []float64) {
	prev := buf[2:]
	buf[0] = float64(whitenessDecay*buf[0]) + dot(d, prev)
	buf[1] = float64(whitenessDecay*buf[1]) + dot(d, d)
	copy(prev, d)
	if math.IsNaN(buf[0]) || math.IsInf(buf[0], 0) || math.IsNaN(buf[1]) || math.IsInf(buf[1], 0) {
		w.Reset(buf)
	} else if w.N < WhitenessWindow {
		w.N++
	}
}

// Reset clears the statistic.
func (w *InnovationSums) Reset(buf []float64) {
	clear(buf)
	w.N = 0
}

// Whiteness returns the lag-1 autocorrelation of the observed innovation
// sequence, exponentially weighted,
//
//	ρ₁ = Σ_k λ^(K−k) d_k · d_{k-1} / Σ_k λ^(K−k) ‖d_k‖².
//
// Under a correct model the innovations are white, so ρ₁ ≈ 0 within
// ±2/√WhitenessWindow; a persistent bias means the installed model is
// mis-specified for the stream (the server-side filter-health signal,
// paper §3.2). ok is false until WhitenessWindow innovations have been
// observed.
func (w *InnovationSums) Whiteness(buf []float64) (rho float64, ok bool) {
	if buf[1] == 0 {
		return 0, false
	}
	return buf[0] / buf[1], w.N >= WhitenessWindow
}

// WhitenessBound returns the ±2/√window acceptance band for Whiteness:
// |ρ₁| beyond the bound flags a mis-modeled stream.
func WhitenessBound(window int) float64 { return 2 / math.Sqrt(float64(window)) }

// dot is mat.Dot on bare vectors: accumulation from +0 in index order.
func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}
