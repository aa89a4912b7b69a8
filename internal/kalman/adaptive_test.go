package kalman

import (
	"math"
	"math/rand"
	"testing"
)

func TestWhitenessWhiteSequence(t *testing.T) {
	var w InnovationSums
	buf := make([]float64, 1+2)
	if _, ok := w.Whiteness(buf); ok {
		t.Fatal("Whiteness ready before any innovation")
	}
	// Deterministic pseudo-white sequence: alternating-sign values with
	// varying magnitude have near-zero lag-1 autocorrelation.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		if _, ok := w.Whiteness(buf); ok != (i >= WhitenessWindow) {
			t.Fatalf("after %d innovations Whiteness ready = %v", i, ok)
		}
		w.Observe(buf, []float64{rng.NormFloat64()})
	}
	rho, ok := w.Whiteness(buf)
	if !ok {
		t.Fatal("Whiteness not ready after 64 innovations")
	}
	if math.Abs(rho) > WhitenessBound(64) {
		t.Fatalf("white sequence has rho = %v beyond bound %v", rho, WhitenessBound(64))
	}
}

func TestWhitenessCorrelatedSequence(t *testing.T) {
	var w InnovationSums
	buf := make([]float64, 1+2)
	// A slow ramp is maximally correlated at lag 1.
	for i := 0; i < 32; i++ {
		w.Observe(buf, []float64{1 + 0.01*float64(i)})
	}
	rho, ok := w.Whiteness(buf)
	if !ok {
		t.Fatal("Whiteness not ready")
	}
	if rho < 0.9 {
		t.Fatalf("ramp innovations have rho = %v, want ~1 (mis-modeled stream must be flagged)", rho)
	}
	if rho <= WhitenessBound(32) {
		t.Fatalf("rho %v within bound %v; health flag would miss the mis-model", rho, WhitenessBound(32))
	}
}

// TestObserveZeroAllocWhenWarm pins the owner's buffer: warm sums record
// innovations and evaluate whiteness without heap allocation, so the
// per-stream health tap stays off the ingest path's allocation budget.
func TestObserveZeroAllocWhenWarm(t *testing.T) {
	var w InnovationSums
	buf := make([]float64, 2+2)
	d := []float64{0.5, -0.5}
	for i := 0; i < 8; i++ {
		w.Observe(buf, d)
	}
	if n := testing.AllocsPerRun(500, func() {
		w.Observe(buf, d)
		w.Whiteness(buf)
	}); n != 0 {
		t.Fatalf("warm Observe+Whiteness allocates %v per run, want 0", n)
	}
}
