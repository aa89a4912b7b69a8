package kalman

import (
	"fmt"
	"math"
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

// dot is mat.Dot on bare vectors: accumulation from +0 in index order.
func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}
