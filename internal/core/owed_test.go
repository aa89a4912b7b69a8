package core

import (
	"math"
	"math/rand"
	"testing"

	"streamkf/internal/kalman"
	"streamkf/internal/model"
	"streamkf/internal/stream"
	"streamkf/internal/trace"
)

// owedPair drives a source and a server the way a deployment does — the
// server sees only the updates, and runs each gap's predicts in one
// AdvanceTo inside ApplyUpdate — and requires after every applied update
// that the two filters are StateEqual and answer the same bits. next
// returns reading seq's value, given the source as it stands before it;
// after, when not nil, runs once the reading is handled and may replace
// the server. It returns the source.
func owedPair(t *testing.T, cfg Config, readings int, next func(seq int, src *SourceNode) float64, after func(seq int, u *Update, src *SourceNode, srv **ServerNode)) *SourceNode {
	t.Helper()
	cfg.SourceID = "owed"
	src, err := NewSourceNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := stream.Reading{Values: make([]float64, 1)}
	for seq := 0; seq < readings; seq++ {
		r.Seq, r.Time, r.Values[0] = seq, float64(seq), next(seq, src)
		u, est, err := src.Process(r)
		if err != nil {
			t.Fatalf("seq %d: Process: %v", seq, err)
		}
		if u != nil {
			if err := srv.ApplyUpdate(*u); err != nil {
				t.Fatalf("seq %d: ApplyUpdate: %v", seq, err)
			}
			ans, _ := srv.Estimate()
			if !kalman.StateEqual(src.Mirror(), srv.Filter()) || math.Float64bits(ans[0]) != math.Float64bits(est[0]) {
				t.Fatalf("seq %d: mirror and server differ after the update (answers %v, %v)", seq, ans[0], est[0])
			}
		}
		if after != nil {
			after(seq, u, src, &srv)
		}
	}
	return src
}

// anchor copies the mirror's covariance as its block holds it.
func anchor(f *kalman.Filter) []float64 {
	n := f.StateDim()
	return append([]float64(nil), f.Block()[n:n+n*n]...)
}

// mirrorPrediction is what the mirror will predict for the next reading:
// fed as that reading, it is suppressed.
func mirrorPrediction(src *SourceNode) float64 {
	next := src.Mirror().Clone()
	next.Predict()
	return next.PredictedMeasurement().At(0, 0)
}

// TestPairOwedOutlierMidGap: the NIS gate rejects outliers in the middle
// of suppressed runs, where the mirror reads a P settled from the steps it
// owes. A rejected reading steps x and owes one more step, and the anchor
// does not move: the server, which never sees it, must stay in step.
func TestPairOwedOutlierMidGap(t *testing.T) {
	cfg := Config{Model: model.Linear(1, 1, 0.05, 0.05), Delta: 0.19, OutlierNIS: 25, MaxConsecutiveOutliers: 3}
	rng := rand.New(rand.NewSource(3))
	rejected, owedGate := 0, 0
	var before []float64
	src := owedPair(t, cfg, 20000, func(seq int, src *SourceNode) float64 {
		v := 40*math.Sin(float64(seq)/300) + 0.05*rng.NormFloat64()
		if seq%97 == 50 {
			v += 1e3
		}
		if src.Mirror() != nil {
			before = anchor(src.Mirror())
		}
		return v
	}, func(seq int, u *Update, src *SourceNode, _ **ServerNode) {
		if src.LastDecision().Dec != trace.DecisionOutlier {
			return
		}
		rejected++
		if !sameBits(anchor(src.Mirror()), before) {
			t.Fatalf("seq %d: a rejected outlier moved the mirror's anchor", seq)
		}
		if src.Mirror().Cov().At(0, 0) != anchor(src.Mirror())[0] {
			owedGate++ // the gate read P settled from an anchor it did not move
		}
	})
	if rejected != src.Stats().OutliersRejected || owedGate < 50 {
		t.Fatalf("%d outliers rejected (%d counted), %d of them with steps owed: the row tests nothing", rejected, src.Stats().OutliersRejected, owedGate)
	}
}

// TestPairOwedThroughCycle: a dense run takes both filters onto the
// covariance cycle, a suppressed run of each length from 1 to 9 takes
// them off it, owing steps, and the next dense run brings them back.
func TestPairOwedThroughCycle(t *testing.T) {
	for _, m := range []model.Model{model.Constant(1, 0.05, 0.05), model.Linear(1, 1, 0.05, 0.05)} {
		t.Run(m.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			const dense = 80
			gap, left, entered := 1, 0, 0
			owedPair(t, Config{Model: m, Delta: 1e-9}, 10*(dense+10), func(seq int, src *SourceNode) float64 {
				if phase := seq % (dense + 10); phase >= dense && phase < dense+gap {
					return mirrorPrediction(src)
				}
				return 0.1*float64(seq) + rng.NormFloat64()
			}, func(seq int, u *Update, src *SourceNode, srv **ServerNode) {
				switch phase := seq % (dense + 10); {
				case phase == dense-1 && src.Mirror().Cycling() && (*srv).Filter().Cycling():
					entered++
				case phase == dense+gap && u != nil:
					left++
					gap = gap%9 + 1
				}
			})
			if entered < 9 || left < 9 {
				t.Fatalf("on the cycle before %d of 10 gaps, %d gaps closed by an update", entered, left)
			}
		})
	}
}

// TestPairOwedSinusoidal: the sinusoidal model's Φ(0) has the closed
// form's shape, so its filters sit on a record that owes steps, but φ_k
// moves with k: every step that is not Φ(0) bit for bit settles what is
// owed and runs the full predict, on both sides alike.
func TestPairOwedSinusoidal(t *testing.T) {
	m := model.Sinusoidal(18/math.Pi, math.Pi, 0.8, 0.05, 0.05)
	rng := rand.New(rand.NewSource(5))
	src := owedPair(t, Config{Model: m, Delta: 0.5}, 5000, func(seq int, _ *SourceNode) float64 {
		return 10*math.Sin(float64(seq)/40) + 0.1*rng.NormFloat64()
	}, nil)
	if st := src.Stats(); st.Updates < 50 || st.Suppressed < 500 {
		t.Fatalf("%d updates, %d suppressed: no gaps to owe", st.Updates, st.Suppressed)
	}
}

// TestPairOwedCheckpointMidGap: the server is checkpointed and recovered
// in the middle of suppressed runs — a server at rest owes nothing, so its
// snapshot's P is the anchor — and continues in step with the mirror.
func TestPairOwedCheckpointMidGap(t *testing.T) {
	cfg := Config{Model: model.Linear(1, 1, 0.05, 0.05), Delta: 0.19}
	cfg.SourceID = "owed"
	rng := rand.New(rand.NewSource(9))
	restores, last := 0, -1
	src := owedPair(t, cfg, 20000, func(seq int, _ *SourceNode) float64 {
		return 30*math.Sin(float64(seq)/200) + 0.05*rng.NormFloat64()
	}, func(seq int, u *Update, src *SourceNode, srv **ServerNode) {
		if u != nil {
			last = seq
		}
		if seq%61 != 0 || u != nil || seq-last < 2 {
			return
		}
		snap := (*srv).Snapshot()
		restored, err := NewServerNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		*srv = restored
		restores++
	})
	if restores < 50 || src.Stats().Updates < 500 {
		t.Fatalf("%d restores, %d updates: the row tests nothing", restores, src.Stats().Updates)
	}
}

func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestSnapshotAfterAdvanceIsTheAnchor: a node that owes steps — only
// after replaying a legacy advance record — settles them before a
// snapshot, so the node that goes on and the one restored from its
// checkpoint fold the next update in to the same bits.
func TestSnapshotAfterAdvanceIsTheAnchor(t *testing.T) {
	cfg := Config{SourceID: "owed", Model: model.Linear(1, 1, 0.05, 0.05), Delta: 0.19}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		live, err := NewServerNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seq := 0
		for i := 0; i < 6; i++ {
			if err := live.ApplyUpdate(Update{SourceID: "owed", Seq: seq, Values: []float64{rng.NormFloat64()}, Bootstrap: i == 0}); err != nil {
				t.Fatal(err)
			}
			seq += 1 + rng.Intn(5)
		}
		live.AdvanceTo(seq + 2 + rng.Intn(40))
		restored, err := NewServerNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreSnapshot(live.Snapshot()); err != nil {
			t.Fatal(err)
		}
		u := Update{SourceID: "owed", Seq: live.Seq() + 2 + rng.Intn(40), Values: []float64{rng.NormFloat64()}}
		for _, n := range []*ServerNode{live, restored} {
			if err := n.ApplyUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
		if !kalman.StateEqual(live.Filter(), restored.Filter()) {
			t.Fatalf("trial %d: the live node and the restored one differ: P %v and %v", trial, anchor(live.Filter()), anchor(restored.Filter()))
		}
	}
}
