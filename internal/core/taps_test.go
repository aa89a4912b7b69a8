package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamkf/internal/kalman"
	"streamkf/internal/mat"
	"streamkf/internal/model"
	"streamkf/internal/stream"
)

// applySeparateTaps is ApplyUpdate with its taps computed apart from the
// correction: the divergence tap from an H x̂⁻ of its own, the NIS by
// NISValues before the correction, then the correction and the health
// window. The reference the fused taps are held to.
func applySeparateTaps(s *ServerNode, u Update) error {
	if !s.booted || u.Bootstrap || u.Seq < s.lastSeq {
		return s.ApplyUpdate(u) // no tap is touched on these paths
	}
	s.AdvanceTo(u.Seq)
	s.filter.Settle()
	if pred := s.pred(); len(u.Values) == len(pred) {
		s.lastInnov, s.innovValid = maxAbsResidual(u.Values, s.filter.PredictedInto(pred)), true
	}
	if nis, err := s.filter.NISValues(u.Values); err == nil {
		s.lastNIS, s.nisValid = nis, true
	}
	if err := s.filter.CorrectValues(u.Values); err != nil {
		return err
	}
	s.health.Observe(s.sums(), s.filter.LastInnovation())
	return nil
}

// requireSameTaps fails unless the fused node and the reference agree bit
// for bit on the apply's error, both taps, the health snapshot and the
// filter's x and P.
func requireSameTaps(t *testing.T, at string, errF, errR error, fused, ref *ServerNode) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if (errF == nil) != (errR == nil) {
		t.Fatalf("%s: apply %v, reference %v", at, errF, errR)
	}
	fi, fok := fused.LastInnovation()
	ri, rok := ref.LastInnovation()
	fn, fnok := fused.LastNIS()
	rn, rnok := ref.LastNIS()
	if fok != rok || !same(fi, ri) || fnok != rnok || !same(fn, rn) {
		t.Fatalf("%s: innovation %v (%v) NIS %v (%v), reference %v (%v) %v (%v)", at, fi, fok, fn, fnok, ri, rok, rn, rnok)
	}
	fh, rh := fused.Health(), ref.Health()
	if !same(fh.NIS, rh.NIS) || !same(fh.Whiteness, rh.Whiteness) || fh.NISValid != rh.NISValid || fh.Ready != rh.Ready || fh.Healthy != rh.Healthy {
		t.Fatalf("%s: health %+v, reference %+v", at, fh, rh)
	}
	if ff, rf := fused.Filter(), ref.Filter(); ff != nil && !sameBits(append(ff.State().RawData(), ff.Cov().RawData()...), append(rf.State().RawData(), rf.Cov().RawData()...)) {
		t.Fatalf("%s: filters differ", at)
	}
}

// TestFusedTapsMatchSeparate applies every update of seeded dense and
// sparse pairs, on the constant and the linear model, to a node whose taps
// read the correction's innovation (ApplyUpdate) and to one that computes
// them apart (applySeparateTaps): the divergence tap, the NIS and the
// whiteness sums must be bit-identical after every update. The readings
// carry ±0, NaN, ±Inf and ±1e300 in turn.
func TestFusedTapsMatchSeparate(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}
	models := []model.Model{model.Constant(1, 0.05, 0.05), model.Linear(1, 1, 0.05, 0.05)}
	applied := 0
	for _, m := range models {
		for _, delta := range []float64{1e-6, 0.5} {
			for i, special := range specials {
				cfg := Config{SourceID: "taps", Model: m, Delta: delta}
				src, err := NewSourceNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fused, _ := NewServerNode(cfg)
				ref, _ := NewServerNode(cfg)
				rng := rand.New(rand.NewSource(int64(i + 1)))
				level := 0.0
				for seq := 0; seq < 400; seq++ {
					level += 0.3 * rng.NormFloat64()
					v := level
					if seq%61 == 60 {
						v = special
					}
					u, _, err := src.Process(stream.Reading{Seq: seq, Values: []float64{v}})
					if err != nil {
						t.Fatal(err)
					}
					if u == nil {
						continue
					}
					up := *u
					up.Values = append([]float64(nil), u.Values...)
					errF, errR := fused.ApplyUpdate(up), applySeparateTaps(ref, up)
					requireSameTaps(t, fmt.Sprintf("%s δ %v special %v seq %d", m.Name, delta, special, seq), errF, errR, fused, ref)
					applied++
				}
			}
		}
	}
	if applied < 2000 {
		t.Fatalf("only %d updates applied", applied)
	}
}

// TestFusedTapsOnRefusedCorrect: an update whose innovation covariance is
// singular (R = Q = P0 = 0) is refused by the correction, yet records the
// divergence tap and no NIS, as the separate taps did; an update of the
// wrong length records neither.
func TestFusedTapsOnRefusedCorrect(t *testing.T) {
	zero := mat.New(1, 1)
	m := model.Custom("singular", kalman.Static(mat.Identity(1)), mat.Identity(1), zero, zero, nil)
	m.P0 = zero
	cfg := Config{SourceID: "singular", Model: m, Delta: 0.5}
	fused, err := NewServerNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewServerNode(cfg)
	for _, u := range []Update{
		{SourceID: "singular", Seq: 0, Values: []float64{1}, Bootstrap: true},
		{SourceID: "singular", Seq: 3, Values: []float64{2.5}},
		{SourceID: "singular", Seq: 4, Values: []float64{1, 2}},
		{SourceID: "singular", Seq: 9, Values: []float64{math.Copysign(0, -1)}},
	} {
		errF, errR := fused.ApplyUpdate(u), applySeparateTaps(ref, u)
		requireSameTaps(t, fmt.Sprintf("seq %d", u.Seq), errF, errR, fused, ref)
		if !u.Bootstrap && errF == nil {
			t.Fatalf("seq %d: a singular S corrected", u.Seq)
		}
	}
	if innov, ok := fused.LastInnovation(); !ok || innov != 1 {
		t.Fatalf("divergence tap %v (%v), want 1 from the last refused update", innov, ok)
	}
	if _, ok := fused.LastNIS(); ok {
		t.Fatal("a refused correction recorded an NIS")
	}
}
