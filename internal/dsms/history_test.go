package dsms

import (
	"math"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
)

func historyServer(t *testing.T) (*Server, []stream.Reading) {
	t.Helper()
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q", SourceID: "src", Delta: 2, Model: "linear"})
	if err := s.EnableHistory("src"); err != nil {
		t.Fatal(err)
	}
	data := gen.Ramp(400, 0, 1.5, 0.05, 21)
	cfg, err := s.InstallFor("src")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error { return s.HandleUpdate(u) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Run(stream.NewSliceSource(data)); err != nil {
		t.Fatal(err)
	}
	return s, data
}

func TestEnableHistoryValidation(t *testing.T) {
	s := NewServer(testCatalog())
	if err := s.EnableHistory("ghost"); err == nil {
		t.Fatal("enabled history for unknown source")
	}
	mustRegister(t, s, stream.Query{ID: "q", SourceID: "src", Delta: 2, Model: "linear"})
	if err := s.EnableHistory("src"); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("src"); err == nil {
		t.Fatal("enabled history twice")
	}
	if _, err := s.InstallFor("src"); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(testCatalog())
	mustRegister(t, s2, stream.Query{ID: "q", SourceID: "src", Delta: 2, Model: "linear"})
	if _, err := s2.InstallFor("src"); err != nil {
		t.Fatal(err)
	}
	if err := s2.EnableHistory("src"); err == nil {
		t.Fatal("enabled history after streaming started")
	}
}

func TestAnswerAtReplaysPastWithinDelta(t *testing.T) {
	s, data := historyServer(t)
	// Every past seq must be answerable within ~δ of the original value
	// (update steps are exact; suppressed steps within δ of the source).
	for _, seq := range []int{0, 1, 57, 123, 250, 399} {
		ans, err := s.AnswerAt("q", seq)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if d := math.Abs(ans[0] - data[seq].Values[0]); d > 2+0.5 {
			t.Fatalf("seq %d: history answer %v, truth %v (err %v > δ)", seq, ans[0], data[seq].Values[0], d)
		}
	}
	if _, err := s.AnswerAt("missing", 0); err == nil {
		t.Fatal("answered history for unknown query")
	}
}

func TestHistoryRange(t *testing.T) {
	s, data := historyServer(t)
	st := s.source("src")
	st.mu.Lock()
	got, err := st.historyRange(100, 150)
	_, errFrom := st.historyRange(-5, 10)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 51 || got[0].Seq != 100 || got[50].Seq != 150 {
		t.Fatalf("range shape wrong: %d readings, ends %d..%d", len(got), got[0].Seq, got[len(got)-1].Seq)
	}
	for _, r := range got {
		if d := math.Abs(r.Values[0] - data[r.Seq].Values[0]); d > 2.5 {
			t.Fatalf("seq %d: range answer err %v", r.Seq, d)
		}
	}
	if errFrom == nil {
		t.Fatal("accepted out-of-range from")
	}
}

func TestHistoryStatsCompression(t *testing.T) {
	s, data := historyServer(t)
	readings, corrections, err := s.HistoryStats("src")
	if err != nil {
		t.Fatal(err)
	}
	// History covers readings up to the last update plus any extension
	// from earlier AnswerAt calls; at minimum the update log's span.
	if readings < 100 {
		t.Fatalf("history covers %d readings, want >= 100", readings)
	}
	if _, err := s.AnswerAt("q", len(data)-1); err != nil {
		t.Fatal(err)
	}
	readings, _, err = s.HistoryStats("src")
	if err != nil {
		t.Fatal(err)
	}
	if readings != len(data) {
		t.Fatalf("after extension history covers %d, want %d", readings, len(data))
	}
	if corrections >= len(data)/2 {
		t.Fatalf("history stored %d corrections for %d readings: no compression", corrections, len(data))
	}
	if _, _, err := s.HistoryStats("ghost"); err == nil {
		t.Fatal("stats for unknown source")
	}
}

func TestHistoryDisabledErrors(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q", SourceID: "src", Delta: 2, Model: "linear"})
	driveSource(t, s, "src", []float64{1, 2, 3})
	if _, err := s.AnswerAt("q", 1); err == nil {
		t.Fatal("AnswerAt succeeded without history")
	}
	st := s.source("src")
	st.mu.Lock()
	_, err := st.historyRange(0, 1)
	st.mu.Unlock()
	if err == nil {
		t.Fatal("a history range replayed without history")
	}
}
