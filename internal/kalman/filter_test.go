package kalman

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamkf/internal/mat"
)

// scalarConfig returns a 1-state constant model: x_{k+1} = x_k + w.
func scalarConfig(q, r, x0 float64) Config {
	return Config{
		Phi: Static(mat.Identity(1)),
		H:   mat.Identity(1),
		Q:   mat.Diag(q),
		R:   mat.Diag(r),
		X0:  mat.Vec(x0),
		P0:  mat.Diag(1),
	}
}

// cvConfig returns the paper's Example 1 linear (constant-velocity) model
// in one dimension: state [pos, vel], measurement pos.
func cvConfig(dt, q, r float64) Config {
	return Config{
		Phi: Static(mat.FromRows([][]float64{{1, dt}, {0, 1}})),
		H:   mat.FromRows([][]float64{{1, 0}}),
		Q:   mat.ScaledIdentity(2, q),
		R:   mat.Diag(r),
		X0:  mat.Vec(0, 0),
		P0:  mat.ScaledIdentity(2, 10),
	}
}

func TestConfigValidate(t *testing.T) {
	good := scalarConfig(0.05, 0.05, 0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := map[string]func(*Config){
		"nil Phi":     func(c *Config) { c.Phi = nil },
		"nil H":       func(c *Config) { c.H = nil },
		"nil Q":       func(c *Config) { c.Q = nil },
		"nil R":       func(c *Config) { c.R = nil },
		"nil X0":      func(c *Config) { c.X0 = nil },
		"X0 not vec":  func(c *Config) { c.X0 = mat.New(1, 2) },
		"Q wrong dim": func(c *Config) { c.Q = mat.Identity(3) },
		"R wrong dim": func(c *Config) { c.R = mat.Identity(2) },
		"H wrong dim": func(c *Config) { c.H = mat.New(1, 5) },
		"P0 wrong":    func(c *Config) { c.P0 = mat.Identity(4) },
		"Phi wrong":   func(c *Config) { c.Phi = Static(mat.Identity(3)) },
	}
	for name, mutate := range cases {
		cfg := scalarConfig(0.05, 0.05, 0)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", name)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{})
}

func TestDefaultP0(t *testing.T) {
	cfg := scalarConfig(0.1, 0.1, 0)
	cfg.P0 = nil
	f := MustNew(cfg)
	if got := f.Cov().At(0, 0); got != 1e3 {
		t.Fatalf("default P0 = %v, want 1e3", got)
	}
}

func TestConvergesToConstant(t *testing.T) {
	f := MustNew(scalarConfig(1e-6, 0.5, 0))
	for i := 0; i < 200; i++ {
		if err := f.Step(mat.Vec(7)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.State().At(0, 0); math.Abs(got-7) > 0.05 {
		t.Fatalf("estimate = %v, want ~7", got)
	}
	if f.K() != 200 {
		t.Fatalf("K = %d, want 200", f.K())
	}
}

func TestTracksNoisyConstantUnbiased(t *testing.T) {
	// KF property 1: the estimate is unbiased. With a constant truth and
	// zero-mean noise, the long-run estimate must approach the truth.
	rng := rand.New(rand.NewSource(42))
	const truth = 3.25
	f := MustNew(scalarConfig(1e-5, 0.25, 0))
	var last float64
	for i := 0; i < 5000; i++ {
		z := truth + 0.5*rng.NormFloat64()
		if err := f.Step(mat.Vec(z)); err != nil {
			t.Fatal(err)
		}
		last = f.State().At(0, 0)
	}
	if math.Abs(last-truth) > 0.1 {
		t.Fatalf("estimate = %v, want within 0.1 of %v", last, truth)
	}
}

func TestTracksRamp(t *testing.T) {
	// A constant-velocity model must lock onto a linear trend and then
	// predict it with near-zero innovation.
	f := MustNew(cvConfig(1, 1e-4, 0.01))
	slope := 2.5
	for k := 1; k <= 100; k++ {
		if err := f.Step(mat.Vec(slope * float64(k))); err != nil {
			t.Fatal(err)
		}
	}
	st := f.State()
	if math.Abs(st.At(1, 0)-slope) > 0.05 {
		t.Fatalf("velocity estimate = %v, want ~%v", st.At(1, 0), slope)
	}
	// Pure prediction should extrapolate the ramp.
	f.Predict()
	want := slope * 101
	if got := f.PredictedMeasurement().At(0, 0); math.Abs(got-want) > 0.5 {
		t.Fatalf("predicted = %v, want ~%v", got, want)
	}
}

func TestPredictOnlyFollowsModel(t *testing.T) {
	f := MustNew(cvConfig(0.5, 0.01, 0.01))
	f.Reset(mat.Vec(10, 2), mat.ScaledIdentity(2, 0.1))
	f.Predict()
	// x = 10 + 2*0.5 = 11.
	if got := f.State().At(0, 0); math.Abs(got-11) > 1e-12 {
		t.Fatalf("predicted pos = %v, want 11", got)
	}
	if f.Corrected() {
		t.Fatal("Corrected() true after Predict")
	}
}

func TestCovarianceGrowsOnPredictShrinksOnCorrect(t *testing.T) {
	f := MustNew(scalarConfig(0.1, 0.1, 0))
	before := f.Cov().At(0, 0)
	f.Predict()
	grown := f.Cov().At(0, 0)
	if grown <= before {
		t.Fatalf("P after Predict = %v, want > %v", grown, before)
	}
	if err := f.Correct(mat.Vec(0)); err != nil {
		t.Fatal(err)
	}
	if shrunk := f.Cov().At(0, 0); shrunk >= grown {
		t.Fatalf("P after Correct = %v, want < %v", shrunk, grown)
	}
	if !f.Corrected() {
		t.Fatal("Corrected() false after Correct")
	}
}

func TestCorrectDimensionError(t *testing.T) {
	f := MustNew(scalarConfig(0.1, 0.1, 0))
	f.Predict()
	if err := f.Correct(mat.Vec(1, 2)); err == nil {
		t.Fatal("Correct accepted wrong-dimension measurement")
	}
	if _, err := f.NIS(mat.Vec(1, 2)); err == nil {
		t.Fatal("NIS accepted wrong-dimension measurement")
	}
}

func TestGainAndInnovationAccessors(t *testing.T) {
	f := MustNew(scalarConfig(0.1, 0.1, 0))
	if f.Gain() != nil || f.Innovation() != nil {
		t.Fatal("Gain/Innovation non-nil before first correction")
	}
	f.Predict()
	if err := f.Correct(mat.Vec(5)); err != nil {
		t.Fatal(err)
	}
	if f.Gain() == nil || f.Innovation() == nil {
		t.Fatal("Gain/Innovation nil after correction")
	}
	if got := f.Innovation().At(0, 0); math.Abs(got-5) > 1e-12 {
		t.Fatalf("innovation = %v, want 5 (x^- was 0)", got)
	}
}

func TestGainBalancesNoiseRatio(t *testing.T) {
	// With huge R relative to Q the gain must be small (trust the model);
	// with tiny R it must approach 1 (trust the measurement).
	trusting := MustNew(scalarConfig(0.01, 1e-8, 0))
	trusting.Predict()
	if err := trusting.Correct(mat.Vec(1)); err != nil {
		t.Fatal(err)
	}
	if g := trusting.Gain().At(0, 0); g < 0.999 {
		t.Fatalf("gain with tiny R = %v, want ~1", g)
	}
	skeptical := MustNew(scalarConfig(1e-8, 1e6, 0))
	skeptical.Predict()
	if err := skeptical.Correct(mat.Vec(1)); err != nil {
		t.Fatal(err)
	}
	if g := skeptical.Gain().At(0, 0); g > 0.01 {
		t.Fatalf("gain with huge R = %v, want ~0", g)
	}
}

func TestNIS(t *testing.T) {
	f := MustNew(scalarConfig(0.1, 0.1, 0))
	f.Predict()
	near, err := f.NIS(mat.Vec(0.01))
	if err != nil {
		t.Fatal(err)
	}
	far, err := f.NIS(mat.Vec(50))
	if err != nil {
		t.Fatal(err)
	}
	if far <= near {
		t.Fatalf("NIS(far) = %v <= NIS(near) = %v", far, near)
	}
	// NIS must not mutate the filter.
	if f.State().At(0, 0) != 0 {
		t.Fatal("NIS mutated filter state")
	}
}

func TestCloneIndependentAndEqual(t *testing.T) {
	f := MustNew(cvConfig(1, 0.05, 0.05))
	for k := 1; k <= 10; k++ {
		if err := f.Step(mat.Vec(float64(k))); err != nil {
			t.Fatal(err)
		}
	}
	c := f.Clone()
	if !StateEqual(f, c) {
		t.Fatal("clone not StateEqual to original")
	}
	c.Predict()
	if StateEqual(f, c) {
		t.Fatal("advancing clone affected original (or StateEqual broken)")
	}
	if f.K() == c.K() {
		t.Fatal("clone shares time index")
	}
}

func TestMirrorSynchronyProperty(t *testing.T) {
	// The DKF invariant: two filters starting identical and fed identical
	// predict/correct sequences remain bit-identical, regardless of which
	// steps carry corrections.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		server := MustNew(cvConfig(1, 0.05, 0.05))
		mirror := server.Clone()
		for k := 0; k < 50; k++ {
			server.Predict()
			mirror.Predict()
			if rng.Intn(2) == 0 {
				z := mat.Vec(rng.NormFloat64() * 10)
				if server.Correct(z) != nil || mirror.Correct(z) != nil {
					return false
				}
			}
			if !StateEqual(server, mirror) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCovarianceStaysPSDAndSymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flt := MustNew(cvConfig(0.1+rng.Float64(), 0.01+rng.Float64(), 0.01+rng.Float64()))
		for k := 0; k < 100; k++ {
			flt.Predict()
			if rng.Intn(3) > 0 {
				if flt.Correct(mat.Vec(rng.NormFloat64()*100)) != nil {
					return false
				}
			}
			p := flt.Cov()
			if !mat.IsFinite(p) {
				return false
			}
			if !mat.ApproxEqual(p, mat.Transpose(p), 1e-9) {
				return false
			}
			// Diagonal of a PSD matrix is non-negative.
			for i := 0; i < p.Rows(); i++ {
				if p.At(i, i) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestResetRewinds(t *testing.T) {
	f := MustNew(scalarConfig(0.1, 0.1, 0))
	for i := 0; i < 5; i++ {
		if err := f.Step(mat.Vec(9)); err != nil {
			t.Fatal(err)
		}
	}
	f.Reset(mat.Vec(1), mat.Diag(2))
	if f.K() != 0 || f.State().At(0, 0) != 1 || f.Cov().At(0, 0) != 2 {
		t.Fatalf("Reset left k=%d x=%v P=%v", f.K(), f.State(), f.Cov())
	}
	if f.Gain() != nil || f.Innovation() != nil {
		t.Fatal("Reset did not clear gain/innovation")
	}
}

func TestSetNoise(t *testing.T) {
	f := MustNew(scalarConfig(0.1, 0.1, 0))
	f.SetNoise(mat.Diag(0.5), mat.Diag(0.7))
	if f.seg(segQ)[0] != 0.5 || f.seg(segR)[0] != 0.7 {
		t.Fatalf("SetNoise: Q=%v R=%v", f.seg(segQ), f.seg(segR))
	}
	f.SetNoise(nil, nil) // no-op
	if f.seg(segQ)[0] != 0.5 {
		t.Fatal("SetNoise(nil,nil) changed Q")
	}
}

func TestTimeVaryingPhi(t *testing.T) {
	// Sinusoidal-style model: phi depends on k. Ensure Predict consults
	// the transition for the current step index.
	var seen []int
	f := MustNew(Config{
		Phi: func(k int) *mat.Matrix {
			seen = append(seen, k)
			return mat.Identity(1)
		},
		H:  mat.Identity(1),
		Q:  mat.Diag(0.1),
		R:  mat.Diag(0.1),
		X0: mat.Vec(0),
		P0: mat.Diag(1),
	})
	f.Predict()
	f.Predict()
	f.Predict()
	// One call during Validate at k=0 plus one per Predict at k=0,1,2.
	want := []int{0, 0, 1, 2}
	if len(seen) != len(want) {
		t.Fatalf("phi calls = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("phi calls = %v, want %v", seen, want)
		}
	}
}
