package dsms

import (
	"math"
	"testing"

	"streamkf/internal/stream"
)

func TestWindowQueryValidate(t *testing.T) {
	good := WindowQuery{ID: "w", SourceID: "s", Func: AggAvg, N: 24, Delta: 2, Model: "linear"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid window query rejected: %v", err)
	}
	bad := []WindowQuery{
		{SourceID: "s", Func: AggAvg, N: 2, Delta: 1},
		{ID: "w", Func: AggAvg, N: 2, Delta: 1},
		{ID: "w", SourceID: "s", Func: "median", N: 2, Delta: 1},
		{ID: "w", SourceID: "s", Func: AggAvg, N: 0, Delta: 1},
		{ID: "w", SourceID: "s", Func: AggAvg, N: 2, Delta: 0},
		{ID: "w", SourceID: "s", Func: AggAvg, N: 2, Delta: 1, F: -1},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, q)
		}
	}
}

func TestRegisterWindowAndAnswer(t *testing.T) {
	s := NewServer(testCatalog())
	q := WindowQuery{ID: "day", SourceID: "zone", Func: AggAvg, N: 10, Delta: 1, Model: "constant"}
	if err := s.RegisterWindow(q); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterWindow(q); err == nil {
		t.Fatal("duplicate window query accepted")
	}
	if !s.HasQuery("day") {
		t.Fatal("HasQuery(day) = false after RegisterWindow")
	}
	if _, err := s.AnswerWindow("day", 5); err == nil {
		t.Fatal("answered before streaming")
	}
	if _, err := s.AnswerWindow("ghost", 5); err == nil {
		t.Fatal("answered unknown window query")
	}

	// Level 10 for 20 readings, then level 50 for 20: a trailing-10 mean
	// at seq 39 must be near 50, at seq 24 it straddles.
	var vals []float64
	for i := 0; i < 20; i++ {
		vals = append(vals, 10)
	}
	for i := 0; i < 20; i++ {
		vals = append(vals, 50)
	}
	driveSource(t, s, "zone", vals)

	end, err := s.AnswerWindow("day", 39)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-50) > 3 {
		t.Fatalf("trailing mean at 39 = %v, want ~50", end)
	}
	mid, err := s.AnswerWindow("day", 24)
	if err != nil {
		t.Fatal(err)
	}
	if mid < 15 || mid > 45 {
		t.Fatalf("straddling mean at 24 = %v, want between the levels", mid)
	}
	// Clamped at the stream start: seq 3 averages only seqs 0..3.
	start, err := s.AnswerWindow("day", 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(start-10) > 2 {
		t.Fatalf("clamped mean = %v, want ~10", start)
	}
}

func TestWindowMinMaxFuncs(t *testing.T) {
	s := NewServer(testCatalog())
	if err := s.RegisterWindow(WindowQuery{ID: "peak", SourceID: "z", Func: AggMax, N: 5, Delta: 1, Model: "constant"}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterWindow(WindowQuery{ID: "trough", SourceID: "z", Func: AggMin, N: 5, Delta: 1, Model: "constant"}); err != nil {
		t.Fatal(err)
	}
	driveSource(t, s, "z", []float64{10, 10, 80, 80, 10, 10, 10, 10, 10, 10})
	peak, err := s.AnswerWindow("peak", 9) // window 5..9, the 80s at 2..3 left
	if err != nil {
		t.Fatal(err)
	}
	if peak > 30 {
		t.Fatalf("peak over trailing 5 = %v; stale maximum retained", peak)
	}
	trough, err := s.AnswerWindow("trough", 3) // window 0..3 includes the 80s and 10s
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(trough-10) > 5 {
		t.Fatalf("trough = %v, want ~10", trough)
	}
}

func TestWindowSharesHistoryWithExplicitEnable(t *testing.T) {
	// A source that already has history enabled can still take window
	// queries (and vice versa).
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q", SourceID: "z", Delta: 1, Model: "constant"})
	if err := s.EnableHistory("z"); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterWindow(WindowQuery{ID: "w", SourceID: "z", Func: AggAvg, N: 4, Delta: 1, Model: "constant"}); err != nil {
		t.Fatalf("window on history-enabled source: %v", err)
	}
	driveSource(t, s, "z", []float64{5, 5, 5, 5, 5})
	got, err := s.AnswerWindow("w", 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5) > 1 {
		t.Fatalf("window answer = %v", got)
	}
}

// TestWindowSumIsTheAggregateFold: a window query folds its replayed
// values through the aggregate queries' AggFold, so a window sum and an
// aggregate sum over the same values are the same bits — here over values
// whose left-to-right float64 sum is not the exact one.
func TestWindowSumIsTheAggregateFold(t *testing.T) {
	s := NewServer(testCatalog())
	for _, fn := range []AggFunc{AggSum, AggAvg} {
		if err := s.RegisterWindow(WindowQuery{ID: "w/" + string(fn), SourceID: "z", Func: fn, N: 8, Delta: 1e-9, Model: "constant"}); err != nil {
			t.Fatal(err)
		}
	}
	driveSource(t, s, "z", []float64{1e16, 3, -1e16, 0.1, 0.2, 0.3, 1e16, -1e16})
	st := s.source("z")
	st.mu.Lock()
	replayed, err := st.historyRange(0, 7)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(replayed))
	var naive float64
	for i, r := range replayed {
		vals[i] = r.Values[0]
		naive += vals[i]
	}
	for _, fn := range []AggFunc{AggSum, AggAvg} {
		got, err := s.AnswerWindow("w/"+string(fn), 7)
		if err != nil {
			t.Fatal(err)
		}
		want := AggregateQuery{Func: fn}.Evaluate(vals)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("window %s = %v, aggregate %s over the same values = %v", fn, got, fn, want)
		}
		if fn == AggSum && got == naive {
			t.Errorf("the values' naive sum %v is already exact: the case proves nothing", naive)
		}
	}
}
