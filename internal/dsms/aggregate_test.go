package dsms

import (
	"math"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
)

func TestAggregateQueryValidate(t *testing.T) {
	good := AggregateQuery{ID: "a", SourceIDs: []string{"s1", "s2"}, Func: AggAvg, Delta: 10, Model: "linear"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid aggregate rejected: %v", err)
	}
	bad := []AggregateQuery{
		{SourceIDs: []string{"s"}, Func: AggAvg, Delta: 1},
		{ID: "a", Func: AggAvg, Delta: 1},
		{ID: "a", SourceIDs: []string{""}, Func: AggAvg, Delta: 1},
		{ID: "a", SourceIDs: []string{"s", "s"}, Func: AggAvg, Delta: 1},
		{ID: "a", SourceIDs: []string{"s"}, Func: "median", Delta: 1},
		{ID: "a", SourceIDs: []string{"s"}, Func: AggAvg, Delta: 0},
		{ID: "a", SourceIDs: []string{"s"}, Func: AggAvg, Delta: 1, F: -1},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, q)
		}
	}
}

func TestPerSourceDeltaAllocation(t *testing.T) {
	q := AggregateQuery{ID: "a", SourceIDs: []string{"x", "y", "z", "w"}, Delta: 8}
	q.Func = AggSum
	if got := q.PerSourceDelta(); got != 2 {
		t.Fatalf("sum allocation = %v, want Δ/t = 2", got)
	}
	for _, f := range []AggFunc{AggAvg, AggMin, AggMax} {
		q.Func = f
		if got := q.PerSourceDelta(); got != 8 {
			t.Fatalf("%s allocation = %v, want Δ = 8", f, got)
		}
	}
}

func TestEvaluate(t *testing.T) {
	vals := []float64{3, -1, 7}
	cases := map[AggFunc]float64{AggSum: 9, AggAvg: 3, AggMin: -1, AggMax: 7}
	for f, want := range cases {
		q := AggregateQuery{Func: f}
		if got := q.Evaluate(vals); got != want {
			t.Errorf("%s = %v, want %v", f, got, want)
		}
	}
}

// runAggregate registers an aggregate over n ramps and streams them all,
// returning the server and the datasets.
func runAggregate(t *testing.T, q AggregateQuery, slopes []float64) (*Server, map[string][]stream.Reading) {
	t.Helper()
	s := NewServer(testCatalog())
	if err := s.RegisterAggregate(q); err != nil {
		t.Fatal(err)
	}
	data := make(map[string][]stream.Reading, len(q.SourceIDs))
	for i, src := range q.SourceIDs {
		data[src] = gen.Ramp(200, float64(i)*10, slopes[i], 0.02, int64(i+1))
	}
	for _, src := range q.SourceIDs {
		cfg, err := s.InstallFor(src)
		if err != nil {
			t.Fatal(err)
		}
		agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error { return s.HandleUpdate(u) }))
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Run(stream.NewSliceSource(data[src])); err != nil {
			t.Fatal(err)
		}
	}
	return s, data
}

func TestAggregateEndToEnd(t *testing.T) {
	for _, fn := range []AggFunc{AggAvg, AggSum, AggMin, AggMax} {
		q := AggregateQuery{
			ID:        "agg-" + string(fn),
			SourceIDs: []string{"a", "b", "c"},
			Func:      fn,
			Delta:     6,
			Model:     "linear",
		}
		s, data := runAggregate(t, q, []float64{1, 2, 3})
		got, err := s.AnswerAggregate(q.ID, 199)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		truths := make([]float64, 0, 3)
		for _, src := range q.SourceIDs {
			truths = append(truths, data[src][199].Values[0])
		}
		want := q.Evaluate(truths)
		// Per-source answers are within ~2δ_i of the truth (correction
		// residual slack), so allow 2Δ for the aggregate.
		if math.Abs(got-want) > 2*q.Delta {
			t.Fatalf("%s aggregate = %v, truth %v, outside 2Δ", fn, got, want)
		}
	}
}

func TestAggregateInstalledDeltaIsAllocated(t *testing.T) {
	s := NewServer(testCatalog())
	q := AggregateQuery{ID: "sum", SourceIDs: []string{"a", "b", "c", "d"}, Func: AggSum, Delta: 8, Model: "constant"}
	if err := s.RegisterAggregate(q); err != nil {
		t.Fatal(err)
	}
	cfg, err := s.InstallFor("a")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Delta != 2 {
		t.Fatalf("installed per-source delta = %v, want 2", cfg.Delta)
	}
}

func TestAggregateDuplicateAndRollback(t *testing.T) {
	s := NewServer(testCatalog())
	q := AggregateQuery{ID: "a", SourceIDs: []string{"x"}, Func: AggAvg, Delta: 5, Model: "linear"}
	if err := s.RegisterAggregate(q); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterAggregate(q); err == nil {
		t.Fatal("duplicate aggregate accepted")
	}
	// Unknown model must fail and roll back all sub-queries.
	bad := AggregateQuery{ID: "b", SourceIDs: []string{"y", "z"}, Func: AggAvg, Delta: 5, Model: "nope"}
	if err := s.RegisterAggregate(bad); err == nil {
		t.Fatal("aggregate with unknown model accepted")
	}
	if _, err := s.InstallFor("y"); err == nil {
		t.Fatal("rollback left a sub-query behind for y")
	}
	if !s.HasQuery("a") || s.HasQuery("b") {
		t.Fatalf("HasQuery(a) = %v, HasQuery(b) = %v; want only a registered", s.HasQuery("a"), s.HasQuery("b"))
	}
}

func TestAnswerAggregateErrors(t *testing.T) {
	s := NewServer(testCatalog())
	if _, err := s.AnswerAggregate("ghost", 0); err == nil {
		t.Fatal("answered unknown aggregate")
	}
	q := AggregateQuery{ID: "a", SourceIDs: []string{"x"}, Func: AggAvg, Delta: 5, Model: "linear"}
	if err := s.RegisterAggregate(q); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AnswerAggregate("a", 0); err == nil {
		t.Fatal("answered before sources streamed")
	}
}

func TestAggregateOverTCP(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	q := AggregateQuery{ID: "meanload", SourceIDs: []string{"z1", "z2"}, Func: AggAvg, Delta: 4, Model: "linear"}
	if err := s.RegisterAggregate(q); err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, s)
	for i, src := range q.SourceIDs {
		agent, err := DialSource(ts.Addr(), src, catalog)
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Run(stream.NewSliceSource(gen.Ramp(100, float64(i*100), 1, 0.01, int64(i+9)))); err != nil {
			t.Fatal(err)
		}
		agent.Close()
	}
	qc, err := DialQuery(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	ans, err := qc.Ask("meanload", 99)
	if err != nil {
		t.Fatal(err)
	}
	want := (99.0 + (100 + 99)) / 2 // mean of the two ramp endpoints
	if math.Abs(ans[0]-want) > 8 {
		t.Fatalf("TCP aggregate = %v, want ~%v", ans[0], want)
	}
}

// TestAnswerAggregateMemo pins the memo contract: a repeated point
// read of an unchanged aggregate is served from the seq-stamped memo
// (O(1), allocation-free) instead of re-advancing and re-evaluating
// every member, and any member mutation or seq change invalidates it.
func TestAnswerAggregateMemo(t *testing.T) {
	q := AggregateQuery{ID: "memo", SourceIDs: []string{"a", "b", "c"}, Func: AggSum, Delta: 6, Model: "linear"}
	s, data := runAggregate(t, q, []float64{1, 2, 3})

	hits := func() int64 { return s.tel.aggMemoHits.Value() }
	misses := func() int64 { return s.tel.aggAnswers.Value() }

	first, err := s.AnswerAggregate(q.ID, 150)
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := hits(), misses()
	if m0 == 0 {
		t.Fatal("first read did not count as a computed answer")
	}

	// Repeated reads at the same seq: all memo hits, bit-identical.
	for i := 0; i < 10; i++ {
		again, err := s.AnswerAggregate(q.ID, 150)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(again) != math.Float64bits(first) {
			t.Fatalf("memoized read %v differs from computed %v", again, first)
		}
	}
	if got := hits() - h0; got != 10 {
		t.Fatalf("10 repeated reads produced %d memo hits", got)
	}
	if got := misses() - m0; got != 0 {
		t.Fatalf("repeated reads recomputed %d times", got)
	}

	// The hit path does no allocation — the O(1) claim in practice.
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.AnswerAggregate(q.ID, 150); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("memoized AnswerAggregate allocates %.1f per read, want 0", allocs)
	}

	// A different seq is a recompute.
	h1, m1 := hits(), misses()
	if _, err := s.AnswerAggregate(q.ID, 180); err != nil {
		t.Fatal(err)
	}
	if hits() != h1 || misses() != m1+1 {
		t.Fatal("read at a new seq was not recomputed")
	}

	// A member mutation (one applied update) invalidates the memo even
	// at the same seq.
	upd := core.Update{SourceID: "a", Seq: 199, Time: data["a"][199].Time, Values: []float64{1234.5}}
	if err := s.HandleUpdate(upd); err != nil {
		t.Fatal(err)
	}
	h2, m2 := hits(), misses()
	if _, err := s.AnswerAggregate(q.ID, 180); err != nil {
		t.Fatal(err)
	}
	if hits() != h2 || misses() != m2+1 {
		t.Fatal("member mutation did not invalidate the memo")
	}
}
