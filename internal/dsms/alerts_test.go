package dsms

import (
	"sync"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/stream"
)

func TestAlertValidate(t *testing.T) {
	good := Alert{ID: "a", QueryID: "q", Threshold: 5, Direction: AlertAbove}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid alert rejected: %v", err)
	}
	bad := []Alert{
		{QueryID: "q"},
		{ID: "a"},
		{ID: "a", QueryID: "q", Direction: AlertDirection(9)},
		{ID: "a", QueryID: "q", Hysteresis: -1},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, a)
		}
	}
}

func TestRegisterAlertValidation(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q", SourceID: "src", Delta: 1, Model: "constant"})
	a := Alert{ID: "a", QueryID: "q", Threshold: 5, Direction: AlertAbove}
	if err := s.RegisterAlert(a, nil); err == nil {
		t.Fatal("accepted nil callback")
	}
	fired := 0
	count := func(AlertEvent) { fired++ }
	if err := s.RegisterAlert(Alert{ID: "x", QueryID: "ghost", Threshold: 1}, count); err == nil {
		t.Fatal("accepted unknown query")
	}
	if err := s.RegisterAlert(a, count); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterAlert(a, count); err == nil {
		t.Fatal("accepted duplicate alert id")
	}
	// Exactly the one accepted registration is installed.
	driveSource(t, s, "src", []float64{1, 9})
	if fired != 1 {
		t.Fatalf("alert fired %d times after one crossing, want 1", fired)
	}
}

// driveSource streams values through an installed source agent.
func driveSource(t *testing.T, s *Server, sourceID string, vals []float64) {
	t.Helper()
	cfg, err := s.InstallFor(sourceID)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error { return s.HandleUpdate(u) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Run(stream.NewSliceSource(stream.FromValues(vals, 1))); err != nil {
		t.Fatal(err)
	}
}

func TestAlertFiresOnceWithHysteresis(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q", SourceID: "src", Delta: 1, Model: "constant"})

	var mu sync.Mutex
	var events []AlertEvent
	err := s.RegisterAlert(Alert{ID: "hot", QueryID: "q", Threshold: 100, Direction: AlertAbove, Hysteresis: 10},
		func(e AlertEvent) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}

	// Climb over the threshold, wobble above it (must NOT refire), dip
	// into the hysteresis band (still armed=fired), then fall far below
	// (re-arms) and climb again (fires a second time).
	var vals []float64
	vals = append(vals, 50, 80, 120)   // fire #1 at 120
	vals = append(vals, 130, 110, 125) // wobble above: silent
	vals = append(vals, 95)            // inside band (>90): still silent
	vals = append(vals, 50, 40)        // below 90: re-arm
	vals = append(vals, 150)           // fire #2
	driveSource(t, s, "src", vals)

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("alert fired %d times, want 2: %+v", len(events), events)
	}
	if events[0].Value < 100 || events[1].Value < 100 {
		t.Fatalf("fired below threshold: %+v", events)
	}
	if events[0].AlertID != "hot" || events[0].QueryID != "q" {
		t.Fatalf("event metadata wrong: %+v", events[0])
	}
}

func TestAlertBelowDirection(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q", SourceID: "src", Delta: 1, Model: "constant"})
	var fired int
	err := s.RegisterAlert(Alert{ID: "low", QueryID: "q", Threshold: 10, Direction: AlertBelow, Hysteresis: 2},
		func(AlertEvent) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	// The filter estimate lags raw values (gain < 1), so each level gets
	// a few samples to settle below/above the threshold.
	driveSource(t, s, "src", []float64{50, 5, 5, 5, 30, 30, 30, 4, 4, 4})
	if fired != 2 {
		t.Fatalf("below alert fired %d times, want 2", fired)
	}
}

func TestAlertOnAggregateQuery(t *testing.T) {
	s := NewServer(testCatalog())
	agg := AggregateQuery{ID: "mean", SourceIDs: []string{"a", "b"}, Func: AggAvg, Delta: 2, Model: "constant"}
	if err := s.RegisterAggregate(agg); err != nil {
		t.Fatal(err)
	}
	var fired int
	err := s.RegisterAlert(Alert{ID: "m", QueryID: "mean", Threshold: 100, Direction: AlertAbove},
		func(AlertEvent) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	// Stream both sources; the mean crosses 100 only when both are high.
	driveSource(t, s, "a", []float64{50, 60, 150, 150})
	if fired != 0 {
		t.Fatalf("aggregate alert fired with source b silent: %d", fired)
	}
	driveSource(t, s, "b", []float64{50, 60, 150, 150})
	if fired != 1 {
		t.Fatalf("aggregate alert fired %d times, want 1", fired)
	}
}

func TestAlertSuppressedWithinDelta(t *testing.T) {
	// Values that wobble inside the precision width never reach the
	// server (suppressed), so an alert threshold inside the wobble band
	// cannot flap: it is evaluated only on real updates.
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q", SourceID: "src", Delta: 10, Model: "constant"})
	var fired int
	err := s.RegisterAlert(Alert{ID: "a", QueryID: "q", Threshold: 52, Direction: AlertAbove},
		func(AlertEvent) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	driveSource(t, s, "src", []float64{50, 51, 53, 51, 54, 50, 53})
	if fired != 0 {
		t.Fatalf("alert fired %d times on suppressed wobble", fired)
	}
}
