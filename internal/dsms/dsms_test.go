package dsms

import (
	"math"
	"strings"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/gen"
	"streamkf/internal/model"
	"streamkf/internal/stream"
)

func testCatalog() *Catalog { return DefaultCatalog(1) }

func TestCatalogResolve(t *testing.T) {
	c := testCatalog()
	for _, name := range []string{"constant", "linear", "acceleration", "jerk", "constant2d", "linear2d"} {
		if _, err := c.Resolve(name); err != nil {
			t.Errorf("Resolve(%q): %v", name, err)
		}
	}
	if _, err := c.Resolve("nope"); err == nil {
		t.Fatal("Resolve accepted unknown model")
	}
	names := c.Names()
	if len(names) != 6 || names[0] != "acceleration" {
		t.Fatalf("Names = %v", names)
	}
	custom := model.Constant(1, 0.1, 0.1)
	custom.Name = "mine"
	c.Register(custom)
	if _, err := c.Resolve("mine"); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := NewServer(testCatalog())
	if err := s.Register(stream.Query{ID: "", SourceID: "s", Delta: 1, Model: "linear"}); err == nil {
		t.Fatal("accepted invalid query")
	}
	if err := s.Register(stream.Query{ID: "q", SourceID: "s", Delta: 1, Model: "nope"}); err == nil {
		t.Fatal("accepted unknown model")
	}
	if err := s.Register(stream.Query{ID: "q", SourceID: "s", Delta: 1, Model: "linear"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(stream.Query{ID: "q", SourceID: "s", Delta: 2, Model: "linear"}); err == nil {
		t.Fatal("accepted duplicate query id")
	}
}

func TestMultiQueryMinDeltaSharing(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "s", Delta: 5, Model: "linear"})
	mustRegister(t, s, stream.Query{ID: "q2", SourceID: "s", Delta: 2, Model: "linear"})
	mustRegister(t, s, stream.Query{ID: "q3", SourceID: "s", Delta: 9, F: 1e-7, Model: "linear"})
	cfg, err := s.InstallFor("s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Delta != 2 {
		t.Fatalf("effective delta = %v, want min 2", cfg.Delta)
	}
	if cfg.F != 1e-7 {
		t.Fatalf("effective F = %v, want 1e-7", cfg.F)
	}
	// Conflicting model on the same source is rejected.
	if err := s.Register(stream.Query{ID: "q4", SourceID: "s", Delta: 1, Model: "constant"}); err == nil {
		t.Fatal("accepted conflicting model")
	}
}

func TestInstallForUnknownSource(t *testing.T) {
	s := NewServer(testCatalog())
	if _, err := s.InstallFor("ghost"); err == nil {
		t.Fatal("installed for unregistered source")
	}
}

func TestRegisterAfterStreamingRejected(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "s", Delta: 2, Model: "linear"})
	if _, err := s.InstallFor("s"); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(stream.Query{ID: "q2", SourceID: "s", Delta: 1, Model: "linear"}); err == nil {
		t.Fatal("accepted registration after install")
	}
}

func TestEndToEndInProcess(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 3, Model: "linear"})
	cfg, err := s.InstallFor("walk")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error { return s.HandleUpdate(u) }))
	if err != nil {
		t.Fatal(err)
	}
	data := gen.Ramp(500, 0, 1.5, 0.05, 13)
	if err := agent.Run(stream.NewSliceSource(data)); err != nil {
		t.Fatal(err)
	}
	// Query answer at the final seq must be within delta-ish of truth.
	ans, err := s.Answer("q1", data[len(data)-1].Seq)
	if err != nil {
		t.Fatal(err)
	}
	truth := data[len(data)-1].Values[0]
	if math.Abs(ans[0]-truth) > 2*3 {
		t.Fatalf("answer %v, truth %v: outside tolerance", ans[0], truth)
	}
	// Suppression happened.
	st := agent.Stats()
	if st.Updates >= st.Readings/2 {
		t.Fatalf("agent sent %d/%d updates; no suppression", st.Updates, st.Readings)
	}
	stats := s.Stats()
	if len(stats) != 1 || stats[0].Updates != st.Updates {
		t.Fatalf("server stats %+v do not match agent %+v", stats, st)
	}
	if stats[0].SourceID != "walk" {
		t.Fatalf("stats name source %q, want walk", stats[0].SourceID)
	}
}

func TestAnswerErrors(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "s", Delta: 1, Model: "constant"})
	if _, err := s.Answer("missing", 0); err == nil {
		t.Fatal("answered unknown query")
	}
	if _, err := s.Answer("q1", 0); err == nil {
		t.Fatal("answered before source streaming")
	}
	if _, err := s.InstallFor("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Answer("q1", 0); err == nil {
		t.Fatal("answered before bootstrap")
	}
}

func TestHandleUpdateUninstalled(t *testing.T) {
	s := NewServer(testCatalog())
	err := s.HandleUpdate(core.Update{SourceID: "ghost", Seq: 0, Values: []float64{1}, Bootstrap: true})
	if err == nil || !strings.Contains(err.Error(), "uninstalled") {
		t.Fatalf("err = %v, want uninstalled-source error", err)
	}
}

func TestNewAgentNilTransport(t *testing.T) {
	cfg := core.Config{SourceID: "s", Model: model.Constant(1, 0.1, 0.1), Delta: 1}
	if _, err := NewAgent(cfg, nil); err == nil {
		t.Fatal("accepted nil transport")
	}
}

func TestQueryAnswerFutureSeqExtrapolates(t *testing.T) {
	// The DKF selling point: asking about a future step extrapolates the
	// model rather than returning the stale cached value.
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "r", Delta: 2, Model: "linear"})
	cfg, err := s.InstallFor("r")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error { return s.HandleUpdate(u) }))
	if err != nil {
		t.Fatal(err)
	}
	data := gen.Ramp(200, 0, 3, 0, 3)
	if err := agent.Run(stream.NewSliceSource(data)); err != nil {
		t.Fatal(err)
	}
	ahead := 220
	ans, err := s.Answer("q1", ahead)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * float64(ahead)
	if math.Abs(ans[0]-want) > 10 {
		t.Fatalf("extrapolated answer %v, want ~%v", ans[0], want)
	}
}

func mustRegister(t *testing.T, s *Server, q stream.Query) {
	t.Helper()
	if err := s.Register(q); err != nil {
		t.Fatal(err)
	}
}
