package dsms

import (
	"math"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/gen"
	"streamkf/internal/kalman"
	"streamkf/internal/stream"
	"streamkf/internal/wal"
)

// sameFilter reports whether two servers' filters for sourceID are
// StateEqual, under both streams' locks.
func sameFilter(t *testing.T, a, b *Server, sourceID string) bool {
	t.Helper()
	sa, sb := a.source(sourceID), b.source(sourceID)
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sb.mu.Lock()
	defer sb.mu.Unlock()
	fa, fb := sa.node.Filter(), sb.node.Filter()
	return fa != nil && fb != nil && kalman.StateEqual(fa, fb)
}

// TestQueryAheadRefusesNoUpdate: a client's query at a seq far ahead of a
// stream evaluates the prediction there without advancing the filter. An
// agent streams a random walk over TCP, a query asks for seq 300 after
// reading 199, and the agent goes on: every update it sends after the
// query (about thirty fall in (200, 300)) is applied, none refused, and
// the server ends StateEqual to a twin that got the same updates and no
// query.
func TestQueryAheadRefusesNoUpdate(t *testing.T) {
	q := stream.Query{ID: "q1", SourceID: "walk", Delta: 3, Model: "linear"}
	s, twin := NewServer(testCatalog()), NewServer(testCatalog())
	mustRegister(t, s, q)
	mustRegister(t, twin, q)
	ts := startServer(t, s)
	agent, err := DialSource(ts.Addr(), q.SourceID, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	cfg, err := twin.InstallFor(q.SourceID)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewAgent(cfg, core.TransportFunc(twin.HandleUpdate))
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range gen.RandomWalk(500, 0, 2, 13) {
		if _, err := agent.Offer(r); err != nil {
			failed++
		}
		if _, err := local.Offer(r); err != nil {
			t.Fatal(err)
		}
		if r.Seq != 199 {
			continue
		}
		if err := agent.Drain(); err != nil {
			t.Fatal(err)
		}
		first, err := s.Answer(q.ID, 300)
		if err != nil {
			t.Fatal(err)
		}
		// The answer is what advancing the filter in place would have
		// left, bit for bit.
		st := twin.source(q.SourceID)
		st.mu.Lock()
		ahead := st.node.Filter().Clone()
		ahead.PredictN(300 - st.node.Seq())
		st.mu.Unlock()
		if want := ahead.PredictedMeasurement().At(0, 0); math.Float64bits(first[0]) != math.Float64bits(want) {
			t.Fatalf("answer at 300: %v, the twin's filter advanced there: %v", first[0], want)
		}
		if !sameFilter(t, s, twin, q.SourceID) {
			t.Fatal("the query moved the server's filter")
		}
	}
	if err := agent.Drain(); err != nil {
		failed++
	}
	sent, applied := agent.Stats().Updates, s.Stats()[0].Updates
	if failed != 0 || sent != applied || sent < 100 {
		t.Fatalf("%d of %d updates refused (%d offers failed)", sent-applied, sent, failed)
	}
	if !sameFilter(t, s, twin, q.SourceID) {
		t.Fatal("the queried server and its twin ended with different filters")
	}
}

// TestCrashAfterQueryAheadRecovers: an answer is not logged because it
// writes nothing, so a durable server that crashes after a query far
// ahead of its stream — no Close, its log as SyncAlways left it — recovers
// StateEqual to the live one, and both answer the same bits ahead.
func TestCrashAfterQueryAheadRecovers(t *testing.T) {
	q := stream.Query{ID: "q1", SourceID: "walk", Delta: 3, Model: "linear"}
	dir := t.TempDir()
	opts := DurabilityOptions{Sync: wal.SyncAlways, CheckpointEvery: 64}
	live, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// live is never closed: it stands for a crash. Its checkpointer is
	// stopped, with no final checkpoint, before dir is removed (cleanups
	// run last in, first out), so that it writes nothing into dir then.
	t.Cleanup(func() { close(live.db.ckptStop); <-live.db.ckptDone })
	mustRegister(t, live, q)
	cfg, err := live.InstallFor(q.SourceID)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(cfg, core.TransportFunc(live.HandleUpdate))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range gen.RandomWalk(350, 0, 2, 13) {
		if _, err := agent.Offer(r); err != nil {
			t.Fatalf("reading %d refused: %v", r.Seq, err)
		}
		if r.Seq == 199 {
			if _, err := live.Answer(q.ID, 300); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := live.Answer(q.ID, 400); err != nil { // the crash follows a query too
		t.Fatal(err)
	}
	recovered, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	if !sameFilter(t, live, recovered, q.SourceID) {
		t.Fatal("the recovered server's filter differs from the live one's")
	}
	a, err := live.Answer(q.ID, 400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := recovered.Answer(q.ID, 400)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a[0]) != math.Float64bits(b[0]) {
		t.Fatalf("answer at 400: live %v, recovered %v", a[0], b[0])
	}
}
