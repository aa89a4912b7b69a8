package kalman

import (
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
