package dsms

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/wal"
)

// feed bootstraps sourceID at value 1 and sends n-1 further updates on
// consecutive seqs: n updates, no gaps.
func feed(t *testing.T, s *Server, sourceID string, n int) {
	t.Helper()
	if _, err := s.InstallFor(sourceID); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < n; seq++ {
		u := core.Update{SourceID: sourceID, Seq: seq, Time: float64(seq), Values: []float64{float64(seq + 1)}, Bootstrap: seq == 0}
		if err := s.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsPastSeriesCap pins that a stream's counts are its own even
// past the registry's per-stream series cap, where the exported series
// collapse into the shared "_other" roll-up: Stats, the checkpoint and
// the migration snapshot all read the record.
func TestStatsPastSeriesCap(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{Sync: wal.SyncOff}
	s, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultSourceMetricLimit; i++ {
		id := fmt.Sprintf("s%04d", i)
		mustRegister(t, s, stream.Query{ID: "q/" + id, SourceID: id, Delta: 1, Model: "constant"})
	}
	fed := map[string]int{"over-a": 1, "over-b": 3, "over-c": 5}
	for id := range fed {
		mustRegister(t, s, stream.Query{ID: "q/" + id, SourceID: id, Delta: 1, Model: "constant"})
	}
	for id, n := range fed {
		feed(t, s, id, n)
	}
	check := func(label string, s *Server, overflowed bool) {
		t.Helper()
		seen := 0
		for _, st := range s.Stats() {
			if n, ok := fed[st.SourceID]; ok {
				seen++
				bytes := n * core.Update{SourceID: st.SourceID, Values: []float64{0}}.WireBytes()
				if st.Updates != n || st.Bytes != bytes {
					t.Errorf("%s: %s reports updates=%d bytes=%d, want %d and %d", label, st.SourceID, st.Updates, st.Bytes, n, bytes)
				}
			}
		}
		if seen != len(fed) {
			t.Fatalf("%s: %d of the overflow streams in Stats, want %d", label, seen, len(fed))
		}
		// Which streams land past the cap depends on registration order,
		// which a recovery does not preserve.
		if v, ok := s.Telemetry().Get("dkf_server_updates_total", telemetry.L("source", "_other")); overflowed && (!ok || v != 9) {
			t.Errorf("%s: _other roll-up reads %v (present %v), want 9", label, v, ok)
		}
	}
	check("live", s, true)

	// SnapshotSource → RestoreSource carries each stream's own counts.
	target := NewServer(testCatalog())
	for i := 0; i < DefaultSourceMetricLimit; i++ {
		id := fmt.Sprintf("t%04d", i)
		mustRegister(t, target, stream.Query{ID: "q/" + id, SourceID: id, Delta: 1, Model: "constant"})
	}
	for id := range fed {
		payload, _, err := s.SnapshotSource(id, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := target.RestoreSource(payload, 2); err != nil {
			t.Fatal(err)
		}
	}
	check("migrated", target, true)

	// Checkpoint → Open likewise.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("recovered", reopened, false)
}

// TestOneQueryNamespace pins that point, aggregate and window queries
// share one id namespace: whichever kind holds an id, registering any
// kind under it again is a duplicate-id error.
func TestOneQueryNamespace(t *testing.T) {
	register := map[string]func(s *Server, id string) error{
		"point": func(s *Server, id string) error {
			return s.Register(stream.Query{ID: id, SourceID: "p-" + id, Delta: 1, Model: "constant"})
		},
		"aggregate": func(s *Server, id string) error {
			return s.RegisterAggregate(AggregateQuery{ID: id, SourceIDs: []string{"a-" + id}, Func: AggSum, Delta: 1, Model: "constant"})
		},
		"window": func(s *Server, id string) error {
			return s.RegisterWindow(WindowQuery{ID: id, SourceID: "w-" + id, Func: AggAvg, N: 3, Delta: 1, Model: "constant"})
		},
	}
	for first, reg1 := range register {
		for second, reg2 := range register {
			s := NewServer(testCatalog())
			if err := reg1(s, "x"); err != nil {
				t.Fatalf("%s: %v", first, err)
			}
			sources := len(s.Stats())
			err := reg2(s, "x")
			if err == nil || !strings.Contains(err.Error(), "duplicate") {
				t.Errorf("%s then %s under one id: err = %v, want a duplicate-id error", first, second, err)
			}
			if got := len(s.Stats()); got != sources {
				t.Errorf("%s then %s: refused registration left %d sources, want %d", first, second, got, sources)
			}
		}
	}
}

// TestClusterRegAdoptsOnlyMatchingKind pins the router-facing rule: a
// TagClusterReg for an id the shard already holds is confirmed only
// when it asks for the kind that holds it.
func TestClusterRegAdoptsOnlyMatchingKind(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "pt", SourceID: "a", Delta: 1, Model: "constant"})
	if err := s.RegisterAggregate(AggregateQuery{ID: "ag", SourceIDs: []string{"b"}, Func: AggSum, Delta: 1, Model: "constant", Partial: true}); err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, s)
	plain := func(id string) func(w *wire.Writer) error {
		return func(w *wire.Writer) error {
			return w.RegisterQuery(wire.ClusterQuery{ID: id, SourceID: "a", Model: "constant", Delta: 1})
		}
	}
	aggregate := func(id string) func(w *wire.Writer) error {
		return func(w *wire.Writer) error {
			return w.RegisterAggregate(wire.ClusterAggregate{ID: id, Func: "sum", Model: "constant", Delta: 1, Partial: true, SourceIDs: []string{"b"}})
		}
	}
	for _, tc := range []struct {
		name  string
		write func(w *wire.Writer) error
		adopt bool
	}{
		{"point as point", plain("pt"), true},
		{"aggregate as aggregate", aggregate("ag"), true},
		{"point as aggregate", aggregate("pt"), false},
		{"aggregate as point", plain("ag"), false},
	} {
		_, w, r := rawClient(t, ts.Addr())
		if err := w.WritePreamble(wire.Version, wire.FeatCluster); err != nil {
			t.Fatal(err)
		}
		if err := tc.write(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ReadPreamble(); err != nil {
			t.Fatal(err)
		}
		if !tc.adopt {
			expectErrorFrame(t, r, "duplicate query id")
			continue
		}
		if tag, _, err := r.Next(); err != nil || tag != wire.TagRegistered {
			t.Errorf("%s: reply %v, %v; want the registration confirmed", tc.name, tag, err)
		}
	}
}

// TestWatchWindowQuery pins that both sinks of the watcher mechanism
// work over a window query, the kind the old alert and subscription
// paths could not resolve.
func TestWatchWindowQuery(t *testing.T) {
	for _, sink := range []string{"alert", "subscription"} {
		s := NewServer(testCatalog())
		if err := s.RegisterWindow(WindowQuery{ID: "w", SourceID: "z", Func: AggAvg, N: 2, Delta: 1, Model: "constant"}); err != nil {
			t.Fatal(err)
		}
		fired := 0
		var ch <-chan Notification
		var err error
		if sink == "alert" {
			err = s.RegisterAlert(Alert{ID: "hot", QueryID: "w", Threshold: 50, Direction: AlertAbove}, func(AlertEvent) { fired++ })
		} else {
			ch, _, err = s.Subscribe("w", 64)
		}
		if err != nil {
			t.Fatalf("%s over a window query: %v", sink, err)
		}
		// Two updates reach the server: the bootstrap and the jump at seq 2.
		driveSource(t, s, "z", []float64{10, 10, 100, 100, 100})
		want, err := s.AnswerWindow("w", 2)
		if err != nil {
			t.Fatal(err)
		}
		if sink == "alert" {
			if fired != 1 {
				t.Errorf("alert over a window query fired %d times, want 1", fired)
			}
			continue
		}
		var last Notification
		for len(ch) > 0 {
			last = <-ch
		}
		if last.Seq != 2 || len(last.Values) != 1 || last.Values[0] != want {
			t.Errorf("subscription over a window query ended on %+v, want seq 2 value %v", last, want)
		}
	}
}

// TestAggFoldGroupingInvariant is the fold's property test: for random
// member values — signed zeros, infinities and 1e±300 magnitudes among
// them — and random 1–4-way shard splits, Evaluate over all members,
// the server memo's value and the merge of per-shard partials agree
// bit for bit, for every aggregate function.
func TestAggFoldGroupingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-300, -1e-300}
	for trial := 0; trial < 400; trial++ {
		values := make([]float64, 1+rng.Intn(12))
		for i := range values {
			switch rng.Intn(3) {
			case 0:
				values[i] = special[rng.Intn(len(special))]
			case 1:
				values[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
			default:
				values[i] = rng.NormFloat64()
			}
		}
		shards := make([][]float64, 1+rng.Intn(4))
		for _, v := range values {
			i := rng.Intn(len(shards))
			shards[i] = append(shards[i], v)
		}
		for _, fn := range []AggFunc{AggSum, AggAvg, AggMin, AggMax} {
			q := AggregateQuery{ID: "a", Func: fn, Delta: 1, Model: "constant"}
			want := math.Float64bits(q.Evaluate(values))

			var merged, part AggFold
			merged.Reset(fn)
			for _, members := range shards {
				part.Reset(fn)
				for _, v := range members {
					part.Add(v)
				}
				merged.Merge(part.Partial())
			}
			if got := math.Float64bits(merged.Finish(len(values))); got != want {
				t.Fatalf("trial %d %s over %v split %v: merged partials %x, Evaluate %x", trial, fn, values, shards, got, want)
			}

			// The memo: one server holding every member at these values.
			s := NewServer(testCatalog())
			for i := range values {
				q.SourceIDs = append(q.SourceIDs, fmt.Sprintf("m%d", i))
			}
			if err := s.RegisterAggregate(q); err != nil {
				t.Fatal(err)
			}
			for i, v := range values {
				id := q.SourceIDs[i]
				if _, err := s.InstallFor(id); err != nil {
					t.Fatal(err)
				}
				if err := s.HandleUpdate(core.Update{SourceID: id, Values: []float64{v}, Bootstrap: true}); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.AnswerAggregate("a", 0)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != want {
				t.Fatalf("trial %d %s over %v: memo %x, Evaluate %x", trial, fn, values, math.Float64bits(got), want)
			}
		}
	}
}

// TestWatchersRaceIngest runs the watcher mechanism under the race
// detector: subscriptions come and go and alerts register while
// parallel ingest fires the watched streams, an alert callback
// re-enters the answer path, and a slow subscriber still ends on the
// newest seq. Each stream is watched through its own point query — a
// watched aggregate advances every member to the firing seq, which
// unsynchronized member streams cannot tolerate.
func TestWatchersRaceIngest(t *testing.T) {
	const updates = 1000
	s := NewServer(testCatalog())
	ids := []string{"slow", "reenter", "churn", "late"}
	for _, id := range ids {
		mustRegister(t, s, stream.Query{ID: "q/" + id, SourceID: id, Delta: 1, Model: "constant"})
		feed(t, s, id, 1)
	}
	slow, cancelSlow, err := s.Subscribe("q/slow", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSlow()
	var reentered atomic.Int64
	reenter := func(e AlertEvent) {
		if _, err := s.Answer("q/reenter", e.Seq); err != nil {
			t.Errorf("alert callback re-entering Answer: %v", err)
		}
		reentered.Add(1)
	}
	if err := s.RegisterAlert(Alert{ID: "first", QueryID: "q/reenter", Threshold: 10, Direction: AlertAbove}, reenter); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for seq := 1; seq <= updates; seq++ {
				if err := s.HandleUpdate(core.Update{SourceID: id, Seq: seq, Time: float64(seq), Values: []float64{float64(seq)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Add(2)
	go func() { // subscriptions come and go
		defer wg.Done()
		for i := 0; i < 200; i++ {
			ch, cancel, err := s.Subscribe("q/churn", 2)
			if err != nil {
				t.Error(err)
				return
			}
			select {
			case <-ch:
			default:
			}
			cancel()
		}
	}()
	go func() { // alerts register mid-ingest
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := s.RegisterAlert(Alert{ID: fmt.Sprintf("late%d", i), QueryID: "q/late", Threshold: 1e9}, func(AlertEvent) {}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if reentered.Load() != 1 {
		t.Errorf("re-entering alert fired %d times, want 1 (armed once, never re-armed)", reentered.Load())
	}
	var last Notification
	for len(slow) > 0 {
		last = <-slow
	}
	if last.Seq != updates {
		t.Errorf("slow subscriber ended on seq %d, want the newest (%d)", last.Seq, updates)
	}
}

// TestReleaseAtomicWithSnapshot races forwards against SnapshotSource:
// the released mark is set in the lock section that cuts the snapshot,
// so the releasing shard never applies an update past the resumeSeq it
// returned, and every forward after it is refused as a stale owner's.
func TestReleaseAtomicWithSnapshot(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := NewServer(testCatalog())
		mustRegister(t, s, stream.Query{ID: "q", SourceID: "m", Delta: 1, Model: "constant"})
		feed(t, s, "m", 1)
		ts := startServer(t, s)
		_, w, r := rawClient(t, ts.Addr())
		if err := w.WritePreamble(wire.Version, wire.FeatCluster); err != nil {
			t.Fatal(err)
		}
		const forwards = 400
		sent := make(chan error, 1)
		go func() {
			for seq := 1; seq <= forwards; seq++ {
				f, err := wire.AppendUpdateFrame(nil, &core.Update{SourceID: "m", Seq: seq, Time: float64(seq), Values: []float64{float64(seq)}})
				if err == nil {
					err = w.Forward(0, 1, f)
				}
				if err == nil {
					err = w.Flush()
				}
				if err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		if _, _, err := r.ReadPreamble(); err != nil {
			t.Fatal(err)
		}
		// Let some forwards land, then cut the snapshot mid-stream.
		if tag, _, err := r.Next(); err != nil || tag != wire.TagForwardAck {
			t.Fatalf("first reply %v, %v; want a forward ack", tag, err)
		}
		_, resumeSeq, err := s.SnapshotSource("m", 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		// Drain the replies: acks up to the cut, refusals after it.
		refused := 0
		for refused < forwards-int(resumeSeq) {
			tag, p, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			switch tag {
			case wire.TagForwardAck:
				if _, seq, _ := wire.DecodeForwardAck(p); seq > resumeSeq {
					t.Fatalf("round %d: forward %d acked past the snapshot's resumeSeq %d", round, seq, resumeSeq)
				}
			case wire.TagError:
				if msg, _ := wire.DecodeError(p); !strings.Contains(msg, "released from this shard") {
					t.Fatalf("round %d: refusal %q, want the stale-owner error", round, msg)
				}
				refused++
			}
		}
		if st := s.Stats()[0]; int64(st.Seq) != resumeSeq || st.Updates != int(resumeSeq)+1 {
			t.Fatalf("round %d: releasing shard at seq %d with %d updates; snapshot covered seq %d", round, st.Seq, st.Updates, resumeSeq)
		}
	}
}
