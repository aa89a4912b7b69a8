package kalman_test

import (
	"math"
	"testing"

	"streamkf/internal/dsms"
	"streamkf/internal/kalman"
	"streamkf/internal/mat"
)

// TestCovarianceCycle pins, for every DefaultCatalog(1) model run densely
// from its P0, the period its P⁺ settles into bit for bit and the dense
// step at which it first repeats — and that only the shapes the cycle
// covers (n ≤ 2, m = 1, standard form) get a record with their cycle, on
// which a dense stream then sits.
func TestCovarianceCycle(t *testing.T) {
	want := map[string]struct{ period, step int }{
		"constant":     {2, 23},
		"linear":       {2, 29},
		"constant2d":   {1, 21},
		"linear2d":     {2, 28},
		"jerk":         {1, 42},
		"acceleration": {6, 40},
	}
	catalog := dsms.DefaultCatalog(1)
	if len(catalog.Names()) != len(want) {
		t.Fatalf("catalogue has %v, the table %d models", catalog.Names(), len(want))
	}
	for _, name := range catalog.Names() {
		m, err := catalog.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		z := make([]float64, m.MeasDim)
		cfg := kalman.Config{Phi: m.Phi, H: m.H, Q: m.Q, R: m.R, X0: m.Init(z), P0: m.P0}
		if period, step := kalman.CycleOf(cfg); period != want[name].period || step != want[name].step {
			t.Errorf("%s: P⁺ settles into a %d-cycle at step %d, want %d at %d", name, period, step, want[name].period, want[name].step)
		}
		covered := m.Dim <= 2 && m.MeasDim == 1
		f := kalman.MustNew(cfg)
		for i := 0; i < 64; i++ {
			f.Predict()
			if err := f.CorrectValues(z); err != nil {
				t.Fatal(err)
			}
		}
		if record, on := kalman.Cached(f), f.Cycling(); record != covered || on != covered {
			t.Errorf("%s: record %v, on the cycle after 64 dense steps %v; want both %v", name, record, on, covered)
		}
		cfg.JosephForm = true
		if kalman.Cached(kalman.MustNew(cfg)) {
			t.Errorf("%s: the Joseph form got a record", name)
		}
	}
	// From P0 = MaxFloat64·I linear's P overflows and repeats as NaN: a
	// cycle, but not one every value of which is finite, so no record.
	m, _ := catalog.Resolve("linear")
	cfg := kalman.Config{Phi: m.Phi, H: m.H, Q: m.Q, R: m.R, X0: mat.Vec(0, 0), P0: mat.ScaledIdentity(2, math.MaxFloat64)}
	if period, _ := kalman.CycleOf(cfg); period != 1 {
		t.Fatalf("overflowing linear: P⁺ settles into a %d-cycle, want 1", period)
	}
	f := kalman.MustNew(cfg)
	for i := 0; i < 8; i++ {
		f.Predict()
		if err := f.CorrectValues([]float64{0}); err != nil {
			t.Fatal(err)
		}
	}
	if kalman.Cached(f) || f.Cycling() {
		t.Errorf("overflowing linear: record %v, on the cycle %v; want neither", kalman.Cached(f), f.Cycling())
	}
}

// TestFilterCycleMatchesReference replays every bit-identity
// configuration densely — a δ that never suppresses — for 400 steps, on a
// drifting trace and on the same trace salted with each special value, and
// requires every step bit-identical to the reference. Where the filter's
// record has a cycle, the cached path must have run on every dense step
// after the one whose P⁺ first equals a phase's: the step CycleOf reports,
// less the period.
func TestFilterCycleMatchesReference(t *testing.T) {
	const steps = 400
	negZero := math.Copysign(0, -1)
	salts := []float64{0, negZero, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, z0 := range []float64{1.5, negZero} {
		cfgs := bitIdentityConfigs(z0)
		for _, name := range sortedNames(cfgs) {
			cfg := cfgs[name]
			t.Run(name, func(t *testing.T) {
				period, first := kalman.CycleOf(cfg)
				for s := -1; s < len(salts); s++ {
					gen, n := lcg(777), 0
					var f *kalman.Filter
					fast := 0
					replayWatch(t, cfg, steps, 0, func() float64 {
						n++
						if v := 0.02*float64(n) + gen.next(); s < 0 || n%7 != 0 || n < 20 {
							return v
						}
						return salts[s]
					}, func(g *kalman.Filter) {
						f = g
						if kalman.TookCycle(g) {
							fast++
						}
					})
					// The entry test follows every correction, so the earliest
					// is step 1's. A time-varying φ has no cycle (its
					// record's, found under φ(0), is never reached).
					want := 0
					if kalman.Cached(f) && period >= 1 && period <= 2 {
						want = max(0, steps-max(first-period, 1))
					}
					if fast != want {
						t.Fatalf("salt %d: the cycle ran on %d of %d steps, want %d (a %d-cycle from step %d)", s, fast, steps, want, period, first)
					}
				}
			})
		}
	}
}
