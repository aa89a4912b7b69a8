package kalman

import (
	"math"
	"math/rand"
	"testing"

	"streamkf/internal/mat"
)

func TestNoiseEstimatorValidation(t *testing.T) {
	if _, err := NewNoiseEstimator(0, 10, 0.01); err == nil {
		t.Fatal("accepted m=0")
	}
	if _, err := NewNoiseEstimator(1, 1, 0.01); err == nil {
		t.Fatal("accepted window=1")
	}
	if _, err := NewNoiseEstimator(1, 10, 0); err == nil {
		t.Fatal("accepted floor=0")
	}
}

func TestNoiseEstimatorWindow(t *testing.T) {
	est, err := NewNoiseEstimator(1, 3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if est.Ready() {
		t.Fatal("Ready before any observations")
	}
	est.Observe(mat.Vec(1))
	est.Observe(mat.Vec(-1))
	if est.Ready() {
		t.Fatal("Ready before window filled")
	}
	est.Observe(mat.Vec(2))
	if !est.Ready() {
		t.Fatal("not Ready after window filled")
	}
	// Innovation second moment = (1+1+4)/3 = 2; with HPH^T = 0.5 the
	// estimate must be 1.5.
	r := est.EstimateR(mat.Diag(0.5))
	if math.Abs(r.At(0, 0)-1.5) > 1e-12 {
		t.Fatalf("EstimateR = %v, want 1.5", r.At(0, 0))
	}
}

func TestNoiseEstimatorFloor(t *testing.T) {
	est, err := NewNoiseEstimator(1, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	est.Observe(mat.Vec(0.01))
	est.Observe(mat.Vec(-0.01))
	r := est.EstimateR(mat.Diag(1.0)) // estimate would be negative
	if r.At(0, 0) != 0.25 {
		t.Fatalf("floored EstimateR = %v, want 0.25", r.At(0, 0))
	}
}

func TestNoiseEstimatorNotReadyPanics(t *testing.T) {
	est, _ := NewNoiseEstimator(1, 4, 0.01)
	defer func() {
		if recover() == nil {
			t.Fatal("EstimateR before Ready did not panic")
		}
	}()
	est.EstimateR(mat.Diag(0))
}

func TestAdaptiveFilterLearnsR(t *testing.T) {
	// Feed a constant-truth stream whose real measurement noise (sigma=2,
	// R=4) is far larger than the filter's assumed R (0.01). The adaptive
	// wrapper must inflate R toward the truth, which in turn lowers the
	// steady-state gain versus the non-adaptive filter.
	rng := rand.New(rand.NewSource(11))
	base := MustNew(scalarConfig(1e-4, 0.01, 0))
	fixed := MustNew(scalarConfig(1e-4, 0.01, 0))
	ad, err := NewAdaptive(base, 50, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		z := mat.Vec(5 + 2*rng.NormFloat64())
		if err := ad.Step(z); err != nil {
			t.Fatal(err)
		}
		if err := fixed.Step(z); err != nil {
			t.Fatal(err)
		}
	}
	learned := ad.seg(segR)[0]
	if learned < 1 {
		t.Fatalf("adaptive R = %v, want inflated toward 4", learned)
	}
	if gA, gF := ad.Gain().At(0, 0), fixed.Gain().At(0, 0); gA >= gF {
		t.Fatalf("adaptive gain %v >= fixed gain %v; R inflation should lower gain", gA, gF)
	}
	// And the smoother estimate should be at least as close to truth.
	if got := ad.State().At(0, 0); math.Abs(got-5) > 0.5 {
		t.Fatalf("adaptive estimate = %v, want ~5", got)
	}
}

func TestAdaptiveCorrectPropagatesError(t *testing.T) {
	base := MustNew(scalarConfig(0.1, 0.1, 0))
	ad, err := NewAdaptive(base, 10, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	ad.Predict()
	if err := ad.Correct(mat.Vec(1, 2)); err == nil {
		t.Fatal("adaptive Correct accepted bad measurement")
	}
}

func TestWhitenessWhiteSequence(t *testing.T) {
	est, err := NewNoiseEstimator(1, 64, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := est.Whiteness(); ok {
		t.Fatal("Whiteness ready before window filled")
	}
	// Deterministic pseudo-white sequence: alternating-sign values with
	// varying magnitude have near-zero lag-1 autocorrelation.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		est.Observe(mat.Vec(rng.NormFloat64()))
	}
	rho, ok := est.Whiteness()
	if !ok {
		t.Fatal("Whiteness not ready after a full window")
	}
	if math.Abs(rho) > est.WhitenessBound() {
		t.Fatalf("white sequence has rho = %v beyond bound %v", rho, est.WhitenessBound())
	}
}

func TestWhitenessCorrelatedSequence(t *testing.T) {
	est, err := NewNoiseEstimator(1, 32, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// A slow ramp is maximally correlated at lag 1.
	for i := 0; i < 32; i++ {
		est.Observe(mat.Vec(1 + 0.01*float64(i)))
	}
	rho, ok := est.Whiteness()
	if !ok {
		t.Fatal("Whiteness not ready")
	}
	if rho < 0.9 {
		t.Fatalf("ramp innovations have rho = %v, want ~1 (mis-modeled stream must be flagged)", rho)
	}
	if rho <= est.WhitenessBound() {
		t.Fatalf("rho %v within bound %v; health flag would miss the mis-model", rho, est.WhitenessBound())
	}
}

// TestObserveZeroAllocWhenWarm pins the ring-buffer reuse: a warm
// estimator records innovations and evaluates whiteness without heap
// allocation, so the per-stream health tap stays off the ingest path's
// allocation budget.
func TestObserveZeroAllocWhenWarm(t *testing.T) {
	est, err := NewNoiseEstimator(2, 8, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	d := mat.Vec(0.5, -0.5)
	for i := 0; i < 8; i++ {
		est.Observe(d)
	}
	if n := testing.AllocsPerRun(500, func() {
		est.Observe(d)
		est.Whiteness()
	}); n != 0 {
		t.Fatalf("warm Observe+Whiteness allocates %v per run, want 0", n)
	}
}

func TestObserveFilter(t *testing.T) {
	f := MustNew(scalarConfig(0.1, 0.1, 0))
	est, err := NewNoiseEstimator(1, 4, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if est.ObserveFilter(f) {
		t.Fatal("ObserveFilter before any correction reported an innovation")
	}
	for i := 0; i < 5; i++ {
		f.Predict()
		if err := f.Correct(mat.Vec(float64(i))); err != nil {
			t.Fatal(err)
		}
		if !est.ObserveFilter(f) {
			t.Fatal("ObserveFilter after Correct found no innovation")
		}
	}
	if !est.Ready() {
		t.Fatal("estimator not ready after window+1 corrections")
	}
}
