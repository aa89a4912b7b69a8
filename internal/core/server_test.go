package core

import (
	"math"
	"testing"

	"streamkf/internal/gen"
	"streamkf/internal/kalman"
	"streamkf/internal/model"
	"streamkf/internal/stream"
)

func TestServerNodeAdvanceToAndSeq(t *testing.T) {
	srv, err := NewServerNode(linearCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	srv.AdvanceTo(10) // no-op before bootstrap
	if srv.Seq() != 0 {
		t.Fatalf("pre-bootstrap Seq = %d", srv.Seq())
	}
	if err := srv.ApplyUpdate(Update{SourceID: "s1", Seq: 5, Values: []float64{2}, Bootstrap: true}); err != nil {
		t.Fatal(err)
	}
	if srv.Seq() != 5 {
		t.Fatalf("bootstrap Seq = %d, want 5", srv.Seq())
	}
	srv.AdvanceTo(8)
	if srv.Seq() != 8 {
		t.Fatalf("Seq after AdvanceTo(8) = %d", srv.Seq())
	}
	srv.AdvanceTo(3) // never rewinds
	if srv.Seq() != 8 {
		t.Fatalf("AdvanceTo rewound to %d", srv.Seq())
	}
}

func TestServerNodeUpdateAtCurrentSeqAllowed(t *testing.T) {
	// A query may have lazily advanced the prediction to exactly the
	// update's seq; correcting there is synchronous and must succeed.
	cfg := linearCfg(1)
	srv, err := NewServerNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSourceNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u, _, err := src.Process(stream.Reading{Seq: 0, Values: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ApplyUpdate(*u); err != nil {
		t.Fatal(err)
	}
	// Query advances the server to seq 1 before the source's update
	// for seq 1 arrives.
	srv.AdvanceTo(1)
	u2, _, err := src.Process(stream.Reading{Seq: 1, Values: []float64{100}})
	if err != nil {
		t.Fatal(err)
	}
	if u2 == nil {
		t.Fatal("expected an update for the jump to 100")
	}
	if err := srv.ApplyUpdate(*u2); err != nil {
		t.Fatalf("aligned-seq update rejected: %v", err)
	}
	if !kalman.StateEqual(src.Mirror(), srv.Filter()) {
		t.Fatal("mirror out of sync after aligned-seq correction")
	}
}

// TestServerNodeRepeatRefused: an update at the seq of the last one
// applied is a repeat, refused with the filter left as the mirror's; a
// bootstrap there still re-initializes.
func TestServerNodeRepeatRefused(t *testing.T) {
	cfg := linearCfg(1)
	srv, err := NewServerNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSourceNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last Update
	for seq, v := range []float64{0, 100} {
		u, _, err := src.Process(stream.Reading{Seq: seq, Values: []float64{v}})
		if err != nil || u == nil {
			t.Fatalf("seq %d: update %v, %v", seq, u, err)
		}
		if err := srv.ApplyUpdate(*u); err != nil {
			t.Fatal(err)
		}
		last = *u
	}
	if err := srv.ApplyUpdate(last); err == nil {
		t.Fatal("a repeat of the last update was applied")
	}
	if !kalman.StateEqual(src.Mirror(), srv.Filter()) {
		t.Fatal("the refused repeat moved the filter")
	}
	if err := srv.ApplyUpdate(Update{SourceID: "s1", Seq: last.Seq, Values: []float64{7}, Bootstrap: true}); err != nil {
		t.Fatalf("a bootstrap at the last seq was refused: %v", err)
	}
}

func TestServerNodeUpdateBehindPredictionRejected(t *testing.T) {
	cfg := linearCfg(1)
	srv, err := NewServerNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ApplyUpdate(Update{SourceID: "s1", Seq: 0, Values: []float64{0}, Bootstrap: true}); err != nil {
		t.Fatal(err)
	}
	srv.AdvanceTo(10)
	err = srv.ApplyUpdate(Update{SourceID: "s1", Seq: 4, Values: []float64{1}})
	if err == nil {
		t.Fatal("accepted update behind the advanced prediction")
	}
}

func TestSessionRejectsNonConsecutiveSeq(t *testing.T) {
	sess, err := NewSession(linearCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(stream.Reading{Seq: 0, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(stream.Reading{Seq: 7, Values: []float64{1}}); err == nil {
		t.Fatal("accepted a sequence gap")
	}
}

func TestServerExtrapolatesWhileSourceSilent(t *testing.T) {
	// The headline capability: after the source goes silent on a locked
	// trend, the server's AdvanceTo answers future queries by
	// extrapolation.
	cfg := linearCfg(1)
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := gen.Ramp(200, 0, 2, 0, 1)
	if _, err := sess.Run(data); err != nil {
		t.Fatal(err)
	}
	sess.Server().AdvanceTo(250)
	est, ok := sess.Server().Estimate()
	if !ok {
		t.Fatal("no estimate")
	}
	if math.Abs(est[0]-500) > 5 {
		t.Fatalf("extrapolated estimate %v, want ~500", est[0])
	}
}

func TestServerNodeHealth(t *testing.T) {
	cfg := linearCfg(0.5)
	srv, err := NewServerNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Health()
	if h.NISValid || h.Ready || !h.Healthy {
		t.Fatalf("pre-bootstrap health = %+v, want zero-valued and healthy", h)
	}
	if err := srv.ApplyUpdate(Update{SourceID: "s1", Seq: 0, Values: []float64{0}, Bootstrap: true}); err != nil {
		t.Fatal(err)
	}
	if h := srv.Health(); h.NISValid {
		t.Fatal("NIS valid after bootstrap alone (no innovation yet)")
	}
	// Feed updates every step; the linear model tracks a ramp well, so
	// NIS becomes available and stays finite.
	for seq := 1; seq <= kalman.WhitenessWindow+2; seq++ {
		u := Update{SourceID: "s1", Seq: seq, Values: []float64{float64(seq)}}
		if err := srv.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	h = srv.Health()
	if !h.NISValid {
		t.Fatal("NIS not valid after non-bootstrap updates")
	}
	if !h.Ready {
		t.Fatalf("whiteness window not ready after %d updates", kalman.WhitenessWindow+2)
	}
	if math.IsNaN(h.NIS) || math.IsInf(h.NIS, 0) || h.NIS < 0 {
		t.Fatalf("NIS = %v, want finite non-negative", h.NIS)
	}
}

// TestServerNodeHealthFlagsMisModel drives a constant-model filter with
// an accelerating stream: every innovation lands on the same side, the
// lag-1 autocorrelation pins near 1, and the health flag must drop.
func TestServerNodeHealthFlagsMisModel(t *testing.T) {
	m := model.Constant(1, 0.0005, 0.05)
	cfg := Config{SourceID: "s1", Model: m, Delta: 0.5}
	srv, err := NewServerNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ApplyUpdate(Update{SourceID: "s1", Seq: 0, Values: []float64{0}, Bootstrap: true}); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= kalman.WhitenessWindow+4; seq++ {
		v := float64(seq) * float64(seq) // acceleration a constant model cannot express
		if err := srv.ApplyUpdate(Update{SourceID: "s1", Seq: seq, Values: []float64{v}}); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.Health()
	if !h.Ready {
		t.Fatal("whiteness window not ready")
	}
	if h.Healthy {
		t.Fatalf("mis-modeled stream reported healthy (whiteness %v)", h.Whiteness)
	}
	if h.Whiteness < 0.5 {
		t.Fatalf("whiteness = %v, want strongly positive for one-sided innovations", h.Whiteness)
	}
}

// TestWhitenessSurvivesNonFinite feeds a node's health tap a few finite
// innovations, one NaN, ±Inf or ±1e300, then kalman.WhitenessWindow
// finite ones, on m = 1 and m = 2. A non-finite statistic must not
// outlive the value that made it: the tap reads ready, with a finite ρ₁
// and the same verdict as a tap that saw only the trailing finite
// sequence, for an alternating (healthy) and a one-sided (mis-model)
// sequence.
func TestWhitenessSurvivesNonFinite(t *testing.T) {
	boot := func(m int) *ServerNode {
		s, err := NewServerNode(Config{SourceID: "s", Model: model.Constant(m, 0.05, 0.05), Delta: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ApplyUpdate(Update{SourceID: "s", Values: make([]float64, m), Bootstrap: true}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	observe := func(s *ServerNode, d []float64) { s.health.Observe(s.sums(), d) }
	for _, m := range []int{1, 2} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300} {
			for name, at := range map[string]func(k, i int) float64{
				"alternating": func(k, i int) float64 { return float64(1-2*(k%2)) * (1 + 0.5*math.Sin(float64(k+i))) },
				"one-sided":   func(k, i int) float64 { return 1 + 0.1*float64(k+i) },
			} {
				s, ref := boot(m), boot(m)
				for k := 0; k < 5; k++ {
					observe(s, []float64{at(k, 0), at(k, 1)}[:m])
				}
				observe(s, []float64{bad, 0.5}[:m])
				for k := 0; k < kalman.WhitenessWindow; k++ {
					d := []float64{at(k, 0), at(k, 1)}[:m]
					observe(s, d)
					observe(ref, d)
				}
				got, want := s.Health(), ref.Health()
				if !got.Ready || math.IsNaN(got.Whiteness) || math.IsInf(got.Whiteness, 0) || got.Healthy != want.Healthy || want.Healthy != (name == "alternating") {
					t.Errorf("m %d, %v then %d %s innovations: health %+v, want ready, finite and healthy=%v (%+v)", m, bad, kalman.WhitenessWindow, name, got, want.Healthy, want)
				}
			}
		}
	}
}
