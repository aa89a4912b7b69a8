package core

import (
	"math"
	"math/rand"
	"testing"

	"streamkf/internal/kalman"
	"streamkf/internal/model"
	"streamkf/internal/stream"
)

// TestMirrorSynchronyThroughCycle runs a source and a server densely until
// both filters sit on their covariance cycle, then takes them off it and
// back in each way a deployment can: one suppressed reading, a server
// Snapshot/RestoreSnapshot mid-cycle, a re-bootstrap, and a query that
// advances the server ahead of the update. After every reading the two
// filters must be StateEqual and the server's answer the mirror's, bit
// for bit — whichever side took the cycle.
func TestMirrorSynchronyThroughCycle(t *testing.T) {
	for _, m := range []model.Model{model.Constant(1, 0.05, 0.05), model.Linear(1, 1, 0.05, 0.05)} {
		t.Run(m.Name, func(t *testing.T) {
			cfg := Config{SourceID: "s", Model: m, Delta: 1e-9}
			src, err := NewSourceNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServerNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			seq := -1
			same := func(what string, a, b float64) {
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seq %d: %s: server answers %v, mirror %v", seq, what, a, b)
				}
			}
			// read feeds one reading. suppress makes it the mirror's own next
			// prediction; queryFirst has the server answer for its seq before
			// the update arrives.
			read := func(suppress, queryFirst bool) {
				seq++
				v := 0.1*float64(seq) + rng.NormFloat64()
				if suppress {
					next := src.Mirror().Clone()
					next.Predict()
					v = next.PredictedMeasurement().At(0, 0)
				}
				if queryFirst {
					srv.AdvanceTo(seq)
				}
				u, est, err := src.Process(stream.Reading{Seq: seq, Values: []float64{v}})
				if err != nil {
					t.Fatal(err)
				}
				if (u == nil) != suppress {
					t.Fatalf("seq %d: update %v, want suppressed %v", seq, u, suppress)
				}
				if queryFirst {
					ans, _ := srv.Estimate()
					same("query ahead of the update", ans[0], src.LastDecision().Pred)
				}
				if u != nil {
					if err := srv.ApplyUpdate(*u); err != nil {
						t.Fatal(err)
					}
				} else {
					srv.AdvanceTo(seq)
				}
				ans, _ := srv.Estimate()
				same("estimate", ans[0], est[0])
				if !kalman.StateEqual(src.Mirror(), srv.Filter()) {
					t.Fatalf("seq %d: mirror and server filters differ", seq)
				}
			}
			cycling := func() bool { return src.Mirror().Cycling() && srv.Filter().Cycling() }
			// untilCycling reads densely until both filters are on the cycle.
			untilCycling := func(why string) {
				for i := 0; !cycling(); i++ {
					if i == 100 {
						t.Fatalf("%s: not both on the cycle after %d dense readings", why, i)
					}
					read(false, false)
				}
			}
			read(false, false) // the bootstrap
			untilCycling("from the bootstrap")

			// A suppressed reading leaves P⁻ of a phase; the next predict
			// follows no Correct, so it leaves the cycle.
			read(true, false)
			read(false, false)
			if src.Mirror().Cycling() || srv.Filter().Cycling() {
				t.Fatal("still on the cycle after a suppressed reading")
			}
			untilCycling("after a suppressed reading")

			if err := srv.RestoreSnapshot(srv.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if srv.Filter().Cycling() {
				t.Fatal("a restored server filter is still on the cycle")
			}
			untilCycling("after a server restore")

			if src, err = NewSourceNode(cfg); err != nil { // the source restarts: a re-bootstrap
				t.Fatal(err)
			}
			read(false, false)
			untilCycling("after a re-bootstrap")

			for i := 0; i < 20; i++ {
				read(false, true)
			}
			if !cycling() {
				t.Fatal("queries ahead of the updates took the filters off the cycle")
			}
		})
	}
}
