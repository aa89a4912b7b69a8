package kalman

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamkf/internal/mat"
)

// declaredConfigs are owedConfigs and the smoothing model's constants:
// every catalogue model that declares its Φ time-invariant on a shape a
// record covers.
func declaredConfigs() map[string]Config {
	cfgs := owedConfigs()
	cfgs["smoothing"] = Config{Phi: Static(mat.Identity(1)), H: mat.Identity(1), Q: mat.Diag(0.1), R: mat.Diag(1), X0: mat.Vec(2)}
	return cfgs
}

// declare returns cfg declared time-invariant over a Phi that counts its
// calls into calls.
func declare(cfg Config, calls *int) Config {
	phi := cfg.Phi
	cfg.Phi = func(k int) *mat.Matrix { *calls++; return phi(k) }
	cfg.TimeInvariant = true
	return cfg
}

// TestDeclaredDifferential drives a filter built with its Φ declared
// time-invariant and an undeclared twin over the same matrices through
// seeded runs: dense steps, suppressed runs a step at a time (Coast(1),
// or CoastPredicted against the twin's Coast(1) and PredictedInto) and in
// one Coast, outlier NIS probes that never correct, a Coast across the owed
// count's overflow, PredictedAheadInto, RestoreValues, SetNoise and a
// re-Init. After every call the two are StateEqual with the same gain,
// innovation, NIS and answer bits, and the declared filter has not called
// Phi since it was built.
func TestDeclaredDifferential(t *testing.T) {
	for name, base := range declaredConfigs() {
		for seed := int64(1); seed <= 3; seed++ {
			calls := 0
			decl := declare(base, &calls)
			d, u := MustNew(decl), MustNew(base)
			if !d.sh.static || !d.sh.poly || u.sh.static {
				t.Fatalf("%s: declared record %v (poly %v), undeclared %v", name, d.sh.static, d.sh.poly, u.sh.static)
			}
			built := calls
			reinit := func() {
				if err := d.Init(d.buf, decl); err != nil {
					t.Fatal(err)
				}
				if err := u.Init(u.buf, base); err != nil {
					t.Fatal(err)
				}
				built = calls
			}
			driveTwins(t, fmt.Sprintf("%s seed %d", name, seed), rand.New(rand.NewSource(seed)), d, u, reinit, func() int { return calls - built })
		}
	}
}

// TestDeclaredIgnoresMutatedPhi: a declared filter reads Φ at build, so
// writing to the matrix its Phi returns afterwards changes none of its
// steps, SetNoise's included; it keeps stepping as a twin over an
// untouched copy does. Each rebuild reads Φ intact and mutates it again.
func TestDeclaredIgnoresMutatedPhi(t *testing.T) {
	for name, base := range declaredConfigs() {
		phi := base.Phi(0).Clone()
		orig := phi.DataCopy()
		decl := base
		decl.Phi, decl.TimeInvariant = Static(phi), true
		mutate := func() {
			for i := range orig {
				phi.RawData()[i] = 2 + float64(i)
			}
		}
		d, u := MustNew(decl), MustNew(base)
		mutate()
		reinit := func() {
			copy(phi.RawData(), orig)
			if d.Init(d.buf, decl) != nil || u.Init(u.buf, base) != nil {
				t.Fatal("rebuild refused")
			}
			mutate()
		}
		driveTwins(t, name+" mutated", rand.New(rand.NewSource(7)), d, u, reinit, func() int { return 0 })
	}
}

// driveTwins runs the declared filter d and its undeclared twin u through
// sixty runs of dense steps, each ended by one disruption; reinit
// rebuilds both from their configurations, and phiCalls reports the calls
// d's Phi took since it was built.
func driveTwins(t *testing.T, name string, rng *rand.Rand, d, u *Filter, reinit func(), phiCalls func() int) {
	t.Helper()
	steps, n, overflowed := 0, int(d.n), false
	negZero := math.Copysign(0, -1)
	at := func(op string) string { return fmt.Sprintf("%s step %d: %s", name, steps, op) }
	check := func(op string) {
		t.Helper()
		requireSame(t, at(op), d, u)
		if !StateEqual(d, u) || d.lag != u.lag {
			t.Fatalf("%s: not StateEqual (owed %d, twin %d)", at(op), d.lag, u.lag)
		}
		if !sameFloats(d.Cov().RawData(), u.Cov().RawData()) || !sameFloats(d.PredictedInto(make([]float64, 1)), u.PredictedInto(make([]float64, 1))) {
			t.Fatalf("%s: settled P or answer differs", at(op))
		}
		if c := phiCalls(); c != 0 {
			t.Fatalf("%s: the declared filter called Phi %d times after build", at(op), c)
		}
	}
	z := func() []float64 {
		steps++
		v := 0.01*float64(steps) + rng.NormFloat64()
		if rng.Intn(30) == 0 {
			v = [...]float64{0, negZero}[rng.Intn(2)]
		}
		return []float64{v}
	}
	correct := func(z []float64) {
		t.Helper()
		if errD, errU := d.CorrectValues(z), u.CorrectValues(z); errD != nil || errU != nil {
			t.Fatalf("%s: %v, twin %v", at("Correct"), errD, errU)
		}
		check("Correct")
		if a, b := d.CorrectedNIS(), u.CorrectedNIS(); !sameFloats([]float64{a}, []float64{b}) {
			t.Fatalf("%s: NIS of the correction %v, twin %v", at("CorrectedNIS"), a, b)
		}
	}
	probe := func(z []float64) {
		t.Helper()
		a, errD := d.NISValues(z)
		b, errU := u.NISValues(z)
		if errD != nil || errU != nil || !sameFloats([]float64{a}, []float64{b}) {
			t.Fatalf("%s: NIS %v (%v), twin %v (%v)", at("NIS"), a, errD, b, errU)
		}
		check("NIS")
	}
	for run := 0; run < 60; run++ {
		for i := 10 + rng.Intn(40); i > 0; i-- {
			d.Predict()
			u.Predict()
			check("Predict")
			z := z()
			if rng.Intn(3) == 0 {
				probe(z)
			}
			correct(z)
		}
		switch rng.Intn(8) {
		case 0, 1: // a suppressed run at the mirror, then an outlier probe and a send
			for i := 1 + rng.Intn(30); i > 0; i-- {
				if i%2 == 0 {
					d.Coast(1)
					u.Coast(1)
					check("Coast(1)")
					continue
				}
				got := d.CoastPredicted(make([]float64, 1))
				u.Coast(1)
				if want := u.PredictedInto(make([]float64, 1)); !sameFloats(got, want) {
					t.Fatalf("%s: CoastPredicted %v, twin's Coast(1) and PredictedInto %v", at("CoastPredicted"), got, want)
				}
				check("CoastPredicted")
			}
			probe([]float64{1e6})
			correct(z())
		case 2: // the server's catch-up over a suppressed run
			k := 1 + rng.Intn(200)
			d.Coast(k)
			u.Coast(k)
			check(fmt.Sprintf("Coast(%d)", k))
			correct(z())
		case 3: // past the owed count's range, from a count already running
			d.Coast(3)
			u.Coast(3)
			k := 1 + rng.Intn(2000)
			if !overflowed { // once a drive: the twin steps each one
				k, overflowed = k+math.MaxUint16, true
			}
			d.Coast(k)
			u.Coast(k)
			check(fmt.Sprintf("Coast(%d)", k))
			correct(z())
		case 4:
			k := rng.Intn(100)
			a, b := d.PredictedAheadInto(make([]float64, 1), k), u.PredictedAheadInto(make([]float64, 1), k)
			if !sameFloats(a, b) {
				t.Fatalf("%s: %v ahead %d, twin %v", at("PredictedAheadInto"), a, k, b)
			}
			d.Coast(k)
			u.Coast(k)
			check("Coast after PredictedAheadInto")
		case 5:
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			p := u.Cov().DataCopy()
			p[0] *= 1.5
			k := d.k + rng.Intn(3)
			d.RestoreValues(x, p, k)
			u.RestoreValues(x, p, k)
			check("RestoreValues")
		case 6:
			q := mat.ScaledIdentity(n, 0.05+0.01*rng.Float64())
			d.SetNoise(q, nil)
			u.SetNoise(q, nil)
			check("SetNoise")
			for i := 1 + rng.Intn(5); i > 0; i-- {
				d.Coast(1)
				u.Coast(1)
				check("Coast(1) after SetNoise")
			}
			d.Predict()
			u.Predict()
			correct(z())
			reinit()
			check("Init")
		case 7:
			reinit()
			check("Init")
		}
	}
}
