package kalman

import (
	"math"
	"math/rand"
	"testing"

	"streamkf/internal/mat"
)

// immBank builds a constant-model + constant-velocity bank over a shared
// 2-dim state (the constant model zeroes the velocity coupling).
func immBank() []*Filter {
	constant := MustNew(Config{
		Phi: Static(mat.FromRows([][]float64{{1, 0}, {0, 0}})),
		H:   mat.FromRows([][]float64{{1, 0}}),
		Q:   mat.ScaledIdentity(2, 0.01),
		R:   mat.Diag(0.25),
		X0:  mat.Vec(0, 0),
		P0:  mat.ScaledIdentity(2, 10),
	})
	cv := MustNew(Config{
		Phi: Static(mat.FromRows([][]float64{{1, 1}, {0, 1}})),
		H:   mat.FromRows([][]float64{{1, 0}}),
		Q:   mat.ScaledIdentity(2, 0.01),
		R:   mat.Diag(0.25),
		X0:  mat.Vec(0, 0),
		P0:  mat.ScaledIdentity(2, 10),
	})
	return []*Filter{constant, cv}
}

func TestNewIMMValidation(t *testing.T) {
	bank := immBank()
	if _, err := NewIMM(IMMConfig{Filters: bank[:1]}); err == nil {
		t.Fatal("accepted single-model bank")
	}
	if _, err := NewIMM(IMMConfig{Filters: []*Filter{bank[0], nil}}); err == nil {
		t.Fatal("accepted nil filter")
	}
	mixed := []*Filter{bank[0], MustNew(scalarConfig(0.1, 0.1, 0))}
	if _, err := NewIMM(IMMConfig{Filters: mixed}); err == nil {
		t.Fatal("accepted mismatched dims")
	}
	badTrans := mat.FromRows([][]float64{{0.5, 0.4}, {0.5, 0.5}})
	if _, err := NewIMM(IMMConfig{Filters: immBank(), Trans: badTrans}); err == nil {
		t.Fatal("accepted non-stochastic transition matrix")
	}
	negTrans := mat.FromRows([][]float64{{1.5, -0.5}, {0.5, 0.5}})
	if _, err := NewIMM(IMMConfig{Filters: immBank(), Trans: negTrans}); err == nil {
		t.Fatal("accepted negative transition probability")
	}
	if _, err := NewIMM(IMMConfig{Filters: immBank(), Prior: []float64{1}}); err == nil {
		t.Fatal("accepted short prior")
	}
	if _, err := NewIMM(IMMConfig{Filters: immBank(), Prior: []float64{0.7, 0.7}}); err == nil {
		t.Fatal("accepted unnormalized prior")
	}
	if _, err := NewIMM(IMMConfig{Filters: immBank()}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestIMMIdentifiesRegime(t *testing.T) {
	im, err := NewIMM(IMMConfig{Filters: immBank()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// Phase 1: constant level. The constant model must dominate.
	for k := 0; k < 150; k++ {
		if err := im.Step(mat.Vec(5 + 0.3*rng.NormFloat64())); err != nil {
			t.Fatal(err)
		}
	}
	if im.MostLikely() != 0 {
		t.Fatalf("constant phase: probabilities %v favour model %d", im.ModelProbabilities(), im.MostLikely())
	}
	// Phase 2: steep ramp. The CV model must take over.
	v := 5.0
	for k := 0; k < 150; k++ {
		v += 2
		if err := im.Step(mat.Vec(v + 0.3*rng.NormFloat64())); err != nil {
			t.Fatal(err)
		}
	}
	if im.MostLikely() != 1 {
		t.Fatalf("ramp phase: probabilities %v favour model %d", im.ModelProbabilities(), im.MostLikely())
	}
	if got := im.State().At(0, 0); math.Abs(got-v) > 2 {
		t.Fatalf("combined estimate %v, truth %v", got, v)
	}
}

func TestIMMProbabilitiesNormalized(t *testing.T) {
	im, err := NewIMM(IMMConfig{Filters: immBank()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	v := 0.0
	for k := 0; k < 300; k++ {
		if k%100 < 50 {
			v += 1.5
		}
		if err := im.Step(mat.Vec(v + 0.5*rng.NormFloat64())); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range im.ModelProbabilities() {
			if p < 0 || math.IsNaN(p) {
				t.Fatalf("step %d: bad probability %v", k, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("step %d: probabilities sum to %v", k, sum)
		}
	}
}

func TestIMMBeatsWorstSingleModelOnRegimeData(t *testing.T) {
	// Mixed workload: flat then ramp then flat. The IMM's tracking RMSE
	// must beat the worse of the two fixed models and be within 2x the
	// better one.
	rng := rand.New(rand.NewSource(8))
	var truth []float64
	v := 10.0
	for i := 0; i < 200; i++ {
		truth = append(truth, v)
	}
	for i := 0; i < 200; i++ {
		v += 2
		truth = append(truth, v)
	}
	for i := 0; i < 200; i++ {
		truth = append(truth, v)
	}
	zs := make([]*mat.Matrix, len(truth))
	for i, tv := range truth {
		zs[i] = mat.Vec(tv + 0.5*rng.NormFloat64())
	}

	rmse := func(run func(z *mat.Matrix) float64) float64 {
		var s float64
		for i, z := range zs {
			e := run(z) - truth[i]
			s += e * e
		}
		return math.Sqrt(s / float64(len(zs)))
	}

	bank := immBank()
	im, err := NewIMM(IMMConfig{Filters: immBank()})
	if err != nil {
		t.Fatal(err)
	}
	immErr := rmse(func(z *mat.Matrix) float64 {
		if err := im.Step(z); err != nil {
			t.Fatal(err)
		}
		return im.State().At(0, 0)
	})
	constErr := rmse(func(z *mat.Matrix) float64 {
		if err := bank[0].Step(z); err != nil {
			t.Fatal(err)
		}
		return bank[0].State().At(0, 0)
	})
	bank2 := immBank()
	cvErr := rmse(func(z *mat.Matrix) float64 {
		if err := bank2[1].Step(z); err != nil {
			t.Fatal(err)
		}
		return bank2[1].State().At(0, 0)
	})

	worst := math.Max(constErr, cvErr)
	best := math.Min(constErr, cvErr)
	if immErr >= worst {
		t.Fatalf("IMM RMSE %v >= worst fixed %v", immErr, worst)
	}
	if immErr > 2*best {
		t.Fatalf("IMM RMSE %v more than 2x best fixed %v", immErr, best)
	}
}
