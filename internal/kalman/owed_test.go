package kalman

import (
	"fmt"
	"math"
	"testing"

	"streamkf/internal/mat"
)

// owedConfigs are the shapes that owe their covariance steps: the
// catalogue's constant and linear models at the two sampling intervals
// the tests and the benchmark use.
func owedConfigs() map[string]Config {
	linear := func(dt float64) Config {
		return Config{
			Phi: Static(mat.FromRows([][]float64{{1, dt}, {0, 1}})), H: mat.FromRows([][]float64{{1, 0}}),
			Q: mat.ScaledIdentity(2, 0.05), R: mat.Diag(0.05), X0: mat.Vec(3, -0.5),
		}
	}
	return map[string]Config{
		"constant":    {Phi: Static(mat.Identity(1)), H: mat.Identity(1), Q: mat.Diag(0.05), R: mat.Diag(0.05), X0: mat.Vec(3)},
		"linear":      linear(1),
		"linear-dt.1": linear(0.1),
	}
}

// corrected returns cfg's filter after a dense run of corrections, so its
// P is a posterior a stream would hold, not P0.
func corrected(t *testing.T, cfg Config) *Filter {
	f := MustNew(cfg)
	for i := 0; i < 50; i++ {
		f.Predict()
		if err := f.CorrectValues([]float64{0.3 * float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestClosedFormMatchesRecursion settles gaps of 2 to 10⁶ predicts after
// a correction in closed form and compares P with the recursion's: the
// relative error of every element stays within 2k ulps for a gap of k.
// x, which both step with the same operations, must match bit for bit,
// and one Coast over the gap must leave the bits of k single ones — the
// server's catch-up and the mirror's per-reading steps.
func TestClosedFormMatchesRecursion(t *testing.T) {
	gaps := []int{2, 3, 4, 5, 7, 10, 31, 100, 1000, 10_000, 65_535, 65_536, 65_537, 100_000, 1_000_000}
	for name, cfg := range owedConfigs() {
		base := corrected(t, cfg)
		if !base.sh.poly {
			t.Fatalf("%s: not on a record that owes its steps", name)
		}
		worst := 0.0
		for _, k := range gaps {
			owed, rec, single := base.Clone(), base.Clone(), base.Clone()
			owed.Coast(k)
			rec.PredictN(k)
			if !sameFloats(owed.seg(segX), rec.seg(segX)) || owed.k != rec.k {
				t.Fatalf("%s gap %d: x %v at k %d, recursion %v at k %d", name, k, owed.seg(segX), owed.k, rec.seg(segX), rec.k)
			}
			if k <= 100_000 {
				for i := 0; i < k; i++ {
					single.Coast(1)
				}
				if !StateEqual(owed, single) {
					t.Fatalf("%s gap %d: one Coast and %d single ones differ", name, k, k)
				}
			}
			got, want := owed.Cov().RawData(), rec.seg(segP)
			for i, w := range want {
				rel := math.Abs(got[i]-w) / math.Abs(w) / 0x1p-52 / float64(k)
				worst = math.Max(worst, rel)
				if !(rel <= 2) {
					t.Errorf("%s gap %d: P[%d] = %v, recursion %v: %.2f ulps a step", name, k, i, got[i], w, rel)
				}
			}
		}
		t.Logf("%s: at most %.3f ulps a step", name, worst)
	}
}

// TestOwedReadsDoNotMoveTheAnchor holds the rule the pair depends on:
// NIS, the log-likelihood and Cov read a settled P without moving the
// anchor or the count; Correct settles into the anchor, as Settle does;
// one owed step settles to the bits of a full predict.
func TestOwedReadsDoNotMoveTheAnchor(t *testing.T) {
	for name, cfg := range owedConfigs() {
		f := corrected(t, cfg)
		full := f.Clone()
		full.PredictN(1)
		f.Coast(1)
		if f.lag != 1 || !sameFloats(f.Cov().RawData(), full.seg(segP)) || !sameFloats(f.seg(segX), full.seg(segX)) {
			t.Fatalf("%s: one owed step (lag %d) does not settle to a full predict", name, f.lag)
		}
		f.Coast(6)
		if f.lag != 7 {
			t.Fatalf("%s: lag %d after six owed steps, want 7", name, f.lag)
		}
		before := f.Clone()
		z := []float64{1.5}
		nis, err := f.NISValues(z)
		if err != nil {
			t.Fatal(err)
		}
		f.Cov()
		if _, err := f.LogLikelihood(mat.Vec(z...)); err != nil {
			t.Fatal(err)
		}
		if !StateEqual(f, before) || !sameFloats(f.seg(segP), before.seg(segP)) {
			t.Fatalf("%s: a read moved the anchor", name)
		}
		settled := before.Clone()
		settled.Settle()
		if settled.lag != 0 || !sameFloats(settled.seg(segP), f.Cov().RawData()) {
			t.Fatalf("%s: Settle left lag %d, P %v; Cov reads %v", name, settled.lag, settled.seg(segP), f.Cov().RawData())
		}
		if again, _ := settled.NISValues(z); math.Float64bits(again) != math.Float64bits(nis) {
			t.Fatalf("%s: NIS %v on the settled filter, %v owed", name, again, nis)
		}
		if err := f.CorrectValues(z); err != nil {
			t.Fatal(err)
		}
		if err := settled.CorrectValues(z); err != nil {
			t.Fatal(err)
		}
		if !StateEqual(f, settled) || f.lag != 0 {
			t.Fatalf("%s: Correct owed and Correct settled differ (lag %d)", name, f.lag)
		}
		f.Coast(3)
		f.RestoreValues(settled.seg(segX), settled.seg(segP), settled.k)
		if !sameFloats(f.Cov().RawData(), settled.seg(segP)) {
			t.Fatalf("%s: a restore left steps owed on the restored P", name)
		}
		f.Coast(1)
		full = settled.Clone()
		full.PredictN(1)
		if f.lag != 1 || !sameFloats(f.Cov().RawData(), full.seg(segP)) || !sameFloats(f.seg(segX), full.seg(segX)) {
			t.Fatalf("%s: one owed step after a restore does not settle to a full predict", name)
		}
	}
}

// TestCoastKeepsRecursionOffTheRecord: a step whose φ_k is not the
// record's Φ — here the matrix is mutated in place, as a time-varying
// model may — settles what is owed and runs the full predict, and a
// filter whose constants have no closed form coasts as PredictN does.
func TestCoastKeepsRecursionOffTheRecord(t *testing.T) {
	cfg := owedConfigs()["linear"]
	phi := cfg.Phi(0).Clone()
	cfg.Phi = Static(phi)
	f := corrected(t, cfg)
	f.Coast(4)
	want := f.Clone()
	want.Settle()
	phi.Set(1, 0, 0.01)
	f.Coast(1)
	want.PredictN(1)
	if f.lag != 0 || !sameFloats(f.seg(segX), want.seg(segX)) || !sameFloats(f.seg(segP), want.seg(segP)) {
		t.Fatalf("a step under another φ: x %v P %v lag %d, want x %v P %v", f.seg(segX), f.seg(segP), f.lag, want.seg(segX), want.seg(segP))
	}
	noisy := owedConfigs()["linear"]
	noisy.Q = mat.FromRows([][]float64{{0.05, 0.01}, {0.01, 0.05}})
	g, ref := corrected(t, noisy), corrected(t, noisy)
	if g.sh.poly {
		t.Fatal("a Q off the diagonal owes its steps")
	}
	g.Coast(9)
	ref.PredictN(9)
	if !StateEqual(g, ref) {
		t.Fatal("Coast off the record is not PredictN")
	}
}

// TestCoastStepsXAsStepX: Coast's x step, written out for the record's Φ,
// leaves the bits stepX leaves, on pairs of special and ordinary values
// (a NaN as any NaN: which one NaN arithmetic returns is the hardware's).
func TestCoastStepsXAsStepX(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1.5, 3e-310, math.MaxFloat64, -1e308, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, dt := range []float64{1, 0.1, 0, math.Copysign(0, -1), -2, 1e300, 5e-324} {
		cfg := owedConfigs()["linear"]
		cfg.Phi = Static(mat.FromRows([][]float64{{1, dt}, {0, 1}}))
		f := MustNew(cfg)
		if !f.sh.poly {
			t.Fatalf("dt %v: the record does not owe its steps", dt)
		}
		for _, x0 := range vals {
			for _, x1 := range vals {
				x, want := f.seg(segX), []float64{x0, x1}
				copy(x, want)
				f.Coast(1)
				stepX(want, nil, cfg.Phi(0).RawData())
				for i, v := range x {
					if math.Float64bits(v) != math.Float64bits(want[i]) && !(math.IsNaN(v) && math.IsNaN(want[i])) {
						t.Fatalf("dt %v, x (%v, %v): Coast steps x to %v, stepX to %v", dt, x0, x1, x, want)
					}
				}
			}
		}
	}
}

// TestCoastPredictedMatchesCoast: on a declared constant or linear record
// CoastPredicted is straight-line code, and on an undeclared twin it is
// Coast(1) then PredictedInto. With x and z drawn from ±0, subnormals,
// ±MaxFloat64, ±Inf, NaN and ordinary values, both must leave the same
// prediction, x, k, owed count and cycle byte after each of two steps,
// the same NIS probes, and the same S, S⁻¹, det S, K, innovation, P, NIS
// and cycle byte after the correction that follows — from a filter on
// its covariance cycle and from one off it. A full owed count and a
// filter SetNoise moved off its record take the twin's path, bit for bit.
func TestCoastPredictedMatchesCoast(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1.5, 3e-310, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for name, base := range declaredConfigs() {
		calls := 0
		decl := declare(base, &calls)
		onCycle := []*Filter{corrected(t, decl), corrected(t, base)}
		for i := 0; onCycle[0].cy == 0 && i < maxSettle; i++ {
			for _, f := range onCycle {
				f.Predict()
				if err := f.CorrectValues([]float64{0.5}); err != nil {
					t.Fatal(err)
				}
			}
		}
		offCycle := []*Filter{MustNew(decl), MustNew(base)}
		built := calls
		if !onCycle[0].sh.line || onCycle[1].sh.line || onCycle[0].cy == 0 || offCycle[0].cy != 0 {
			t.Fatalf("%s: line records %v/%v, cycle bytes %d/%d", name, onCycle[0].sh.line, onCycle[1].sh.line, onCycle[0].cy, offCycle[0].cy)
		}
		n := int(onCycle[0].n)
		step := func(at string, d, u *Filter) {
			t.Helper()
			got := d.CoastPredicted(make([]float64, 1))
			u.Coast(1)
			if want := u.PredictedInto(make([]float64, 1)); !sameFloats(got, want) {
				t.Fatalf("%s: CoastPredicted %v, Coast and PredictedInto %v", at, got, want)
			}
			requireSame(t, at, d, u)
			if d.lag != u.lag || d.cy != u.cy || d.sValid != u.sValid || d.corrected != u.corrected {
				t.Fatalf("%s: owed %d cycle %#x, twin owed %d cycle %#x", at, d.lag, d.cy, u.lag, u.cy)
			}
		}
		probe := func(at string, d, u *Filter, z float64) {
			t.Helper()
			a, errD := d.NISValues([]float64{z})
			b, errU := u.NISValues([]float64{z})
			if (errD == nil) != (errU == nil) || !sameFloats([]float64{a}, []float64{b}) {
				t.Fatalf("%s: NIS %v (%v), twin %v (%v)", at, a, errD, b, errU)
			}
		}
		correct := func(at string, d, u *Filter, z float64) {
			t.Helper()
			probe(at, d, u, z)
			errD, errU := d.CorrectValues([]float64{z}), u.CorrectValues([]float64{z})
			if (errD == nil) != (errU == nil) {
				t.Fatalf("%s: Correct %v, twin %v", at, errD, errU)
			}
			requireSame(t, at, d, u)
			if d.cy != u.cy || !sameFloats([]float64{d.sDet, d.CorrectedNIS()}, []float64{u.sDet, u.CorrectedNIS()}) {
				t.Fatalf("%s: cycle %#x det %v NIS %v, twin cycle %#x det %v NIS %v", at, d.cy, d.sDet, d.CorrectedNIS(), u.cy, u.sDet, u.CorrectedNIS())
			}
		}
		for pi, pair := range [][]*Filter{onCycle, offCycle} {
			for i, x0 := range vals {
				for _, x1 := range vals[:1+(n-1)*(len(vals)-1)] {
					z := vals[(i+pi)%len(vals)]
					d, u := pair[0].Clone(), pair[1].Clone()
					copy(d.seg(segX), []float64{x0, x1}[:n])
					copy(u.seg(segX), []float64{x0, x1}[:n])
					at := fmt.Sprintf("%s cycle %v x (%v, %v) z %v", name, pi == 0, x0, x1, z)
					probe(at+" probe", d, u, x0) // an outlier's probe leaves S cached
					step(at+" step 1", d, u)
					step(at+" step 2", d, u)
					correct(at, d, u, z)
					step(at+" step after", d, u)
				}
			}
			d, u := pair[0].Clone(), pair[1].Clone()
			d.Coast(math.MaxUint16)
			u.Coast(math.MaxUint16)
			step(name+" full owed count", d, u)
			if d.lag != 0 {
				t.Fatalf("%s: the step past a full count left %d owed", name, d.lag)
			}
			correct(name+" after a full count", d, u, 1.5)
			q := mat.ScaledIdentity(n, 0.07)
			d.SetNoise(q, nil)
			u.SetNoise(q, nil)
			step(name+" after SetNoise", d, u)
			correct(name+" after SetNoise", d, u, -2.5)
		}
		if calls != built {
			t.Fatalf("%s: the declared filters called Phi %d times after build", name, calls-built)
		}
	}
}
