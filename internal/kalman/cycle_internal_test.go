package kalman

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"streamkf/internal/mat"
)

// cycleConfigs are the two kernels the cycle covers, in the catalogue's
// constants: constant (1x1) and linear (2x1), P0 the default 1e3·I.
func cycleConfigs() map[string]Config {
	return map[string]Config{
		"constant": {Phi: Static(mat.Identity(1)), H: mat.Identity(1), Q: mat.Diag(0.05), R: mat.Diag(0.05), X0: mat.Vec(0)},
		"linear": {
			Phi: Static(mat.FromRows([][]float64{{1, 1}, {0, 1}})), H: mat.FromRows([][]float64{{1, 0}}),
			Q: mat.ScaledIdentity(2, 0.05), R: mat.Diag(0.05), X0: mat.Vec(0, 0),
		},
	}
}

// sameFloats is bit equality, any NaN equal to any NaN.
func sameFloats(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) && (v == v || b[i] == b[i]) {
			return false
		}
	}
	return true
}

// requireSame fails unless the caching filter c and the never-caching
// filter u hold the same bits in everything the full path leaves behind:
// x, P and k; K and the innovation once both hold a correction's; S, S⁻¹
// and det S whenever both hold them valid.
func requireSame(t *testing.T, at string, c, u *Filter) {
	t.Helper()
	if c.k != u.k || !sameFloats(c.seg(segX), u.seg(segX)) || !sameFloats(c.seg(segP), u.seg(segP)) {
		t.Fatalf("%s: x %v P %v k %d, full path x %v P %v k %d", at, c.seg(segX), c.seg(segP), c.k, u.seg(segX), u.seg(segP), u.k)
	}
	if c.hasGain != u.hasGain || c.hasGain && (!sameFloats(c.seg(segGain), u.seg(segGain)) || !sameFloats(c.seg(segInnov), u.seg(segInnov))) {
		t.Fatalf("%s: K %v d %v, full path K %v d %v", at, c.seg(segGain), c.seg(segInnov), u.seg(segGain), u.seg(segInnov))
	}
	if c.sValid && u.sValid && (!sameFloats(c.seg(segS), u.seg(segS)) || !sameFloats(c.seg(segSInv), u.seg(segSInv)) || !sameFloats([]float64{c.sDet}, []float64{u.sDet})) {
		t.Fatalf("%s: S %v S⁻¹ %v det %v, full path S %v S⁻¹ %v det %v", at, c.seg(segS), c.seg(segSInv), c.sDet, u.seg(segS), u.seg(segSInv), u.sDet)
	}
}

// TestCycleDifferential drives a caching filter and a never-caching one
// through seeded random runs of dense steps — NIS then Correct, now and
// then a second Correct or a Clone taken between a fast predict and its
// Correct — each run a few dozen steps long and ended by one disruption: a
// catch-up (PredictN(k)), a suppressed reading, RestoreValues to the same
// P or another, SetNoise, a rebuild, or a step under the one φ both
// filters read mutated in place.
// Measurements include ±0, NaN, ±Inf and ±1e300. The same bits must hold
// after every operation.
func TestCycleDifferential(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}
	fastTotal, steps := 0, 0
	for name, base := range cycleConfigs() {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// One matrix, returned for every k and mutated in place.
			phi := base.Phi(0).Clone()
			orig := phi.DataCopy()
			cfg := base
			cfg.Phi = Static(phi)
			c, u := MustNew(cfg), MustNew(cfg)
			Uncached(u)
			n := int(c.n)
			var at func(op string) string
			// step is one reading: a predict, then, unless suppressed, NIS and
			// a correction.
			step := func(suppressed bool) {
				steps++
				z := []float64{0.01*float64(steps) + rng.NormFloat64()}
				if rng.Intn(25) == 0 {
					z[0] = specials[rng.Intn(len(specials))]
				}
				c.Predict()
				u.Predict()
				if TookCycle(c) {
					fastTotal++
					if rng.Intn(4) == 0 {
						c = c.Clone()
					}
				}
				requireSame(t, at("Predict"), c, u)
				if suppressed {
					return
				}
				nc, errC := c.NISValues(z)
				nu, errU := u.NISValues(z)
				if (errC == nil) != (errU == nil) || !sameFloats([]float64{nc}, []float64{nu}) {
					t.Fatalf("%s: NIS %v (%v), full path %v (%v)", at("NIS"), nc, errC, nu, errU)
				}
				requireSame(t, at("NIS"), c, u)
				for again := true; again; again = rng.Intn(40) == 0 {
					errC, errU = c.CorrectValues(z), u.CorrectValues(z)
					if (errC == nil) != (errU == nil) {
						t.Fatalf("%s: %v, full path %v", at("Correct"), errC, errU)
					}
					requireSame(t, at("Correct"), c, u)
				}
			}
			for run := 0; run < 60; run++ {
				at = func(op string) string {
					return fmt.Sprintf("%s seed %d run %d step %d: %s", name, seed, run, steps, op)
				}
				for i := 20 + rng.Intn(60); i > 0; i-- {
					step(false)
				}
				switch rng.Intn(6) {
				case 0:
					k := 2 + rng.Intn(4)
					c.PredictN(k)
					u.PredictN(k)
					requireSame(t, at("PredictN"), c, u)
				case 1:
					step(true)
				case 2:
					// A restore to a fresh x on the same P, or to another P.
					x := make([]float64, n)
					for i := range x {
						x[i] = rng.NormFloat64()
					}
					p := append([]float64(nil), u.seg(segP)...)
					if rng.Intn(2) == 0 {
						p[0] *= 1.5
					}
					c.RestoreValues(x, p, c.k)
					u.RestoreValues(x, p, u.k)
					requireSame(t, at("RestoreValues"), c, u)
					step(false)
				case 3:
					before := recordCount()
					q := mat.ScaledIdentity(n, 0.05)
					c.SetNoise(q, nil)
					u.SetNoise(q, nil)
					if c.sh.cyc != nil || recordCount() != before {
						t.Fatal("SetNoise kept the record or interned one")
					}
					requireSame(t, at("SetNoise"), c, u)
					step(false)
					if err := c.Init(c.buf, cfg); err != nil { // back on a record
						t.Fatal(err)
					}
					if err := u.Init(u.buf, cfg); err != nil {
						t.Fatal(err)
					}
					Uncached(u)
					requireSame(t, at("Init"), c, u)
				case 4:
					phi.RawData()[0] = 1 + math.Ldexp(1, -40)
					step(false)
					copy(phi.RawData(), orig)
				case 5:
					x := make([]float64, n) // a re-bootstrap's fresh x, on the same P
					p := append([]float64(nil), u.seg(segP)...)
					c.RestoreValues(x, p, 0)
					u.RestoreValues(x, p, 0)
					step(false)
				}
			}
		}
	}
	if fastTotal < steps/3 {
		t.Fatalf("the cycle ran on %d of %d predicts; the mix hardly reached it", fastTotal, steps)
	}
}

func recordCount() int {
	recordMu.RLock()
	defer recordMu.RUnlock()
	return len(records)
}

// TestCycleSharedAcrossGoroutines has filters of constants no other test
// uses — so their record is new, discovered by whichever goroutine builds
// first — built and stepped densely from several goroutines at once, each
// against a never-caching twin.
func TestCycleSharedAcrossGoroutines(t *testing.T) {
	cfg := cycleConfigs()["linear"]
	cfg.Q = mat.ScaledIdentity(2, 0.0421)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, u := MustNew(cfg), MustNew(cfg)
			Uncached(u)
			gen := traceLCG(uint64(g))
			for i := 0; i < 200; i++ {
				c.Predict()
				u.Predict()
				z := []float64{gen.next()}
				if c.CorrectValues(z) != nil || u.CorrectValues(z) != nil || !StateEqual(c, u) {
					t.Errorf("goroutine %d step %d: the caching filter left the full path", g, i)
					return
				}
			}
			if !c.Cycling() {
				t.Errorf("goroutine %d: not on the cycle after 200 dense steps", g)
			}
			for _, f := range []*Filter{c.Clone(), c} { // a clone carries on, on the cycle
				f.Predict()
				if !TookCycle(f) {
					t.Errorf("goroutine %d: a dense step on the cycle did not take it", g)
				}
			}
		}()
	}
	wg.Wait()
}
