package cluster

import (
	"bytes"
	"math"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
)

// TestRoutedQueryAheadRefusesNoUpdate is dsms's
// TestQueryAheadRefusesNoUpdate through the router: an agent streams a
// random walk to a 2-shard cluster, a query relayed to the owning shard
// asks for seq 300 after reading 199, and the agent goes on. No update is
// refused, the routed answer is the twin's at 300 bit for bit, and the
// owning shard ends with the stream's state — filter, counters and time
// map, as a migration snapshot encodes them — byte for byte a twin's that
// got the same updates in process and no query.
func TestRoutedQueryAheadRefusesNoUpdate(t *testing.T) {
	q := stream.Query{ID: "q1", SourceID: "walk", Delta: 3, Model: "linear"}
	r, shards := startCluster(t, 2, Options{})
	if err := r.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	twin := dsms.NewServer(testCatalog())
	if err := twin.Register(q); err != nil {
		t.Fatal(err)
	}
	agent, err := dsms.DialSource(r.Addr(), q.SourceID, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	cfg, err := twin.InstallFor(q.SourceID)
	if err != nil {
		t.Fatal(err)
	}
	local, err := dsms.NewAgent(cfg, core.TransportFunc(twin.HandleUpdate))
	if err != nil {
		t.Fatal(err)
	}
	qc, err := dsms.DialQuery(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	failed := 0
	for _, rd := range gen.RandomWalk(500, 0, 2, 13) {
		if _, err := agent.Offer(rd); err != nil {
			failed++
		}
		if _, err := local.Offer(rd); err != nil {
			t.Fatal(err)
		}
		if rd.Seq != 199 {
			continue
		}
		if err := agent.Drain(); err != nil {
			t.Fatal(err)
		}
		got, err := qc.Ask(q.ID, 300)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Answer(q.ID, 300)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[0]) != math.Float64bits(want[0]) {
			t.Fatalf("routed answer at 300: %v, the twin's: %v", got[0], want[0])
		}
	}
	if err := agent.Drain(); err != nil {
		failed++
	}
	owner := shards[r.Ring().Owner(q.SourceID)]
	sent, applied := agent.Stats().Updates, owner.Stats()[0].Updates
	if failed != 0 || sent != applied || sent < 100 {
		t.Fatalf("%d of %d updates refused (%d offers failed)", sent-applied, sent, failed)
	}
	// The snapshots release the stream on both servers; nothing follows.
	got, _, err := owner.SnapshotSource(q.SourceID, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := twin.SnapshotSource(q.SourceID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the owning shard and its twin ended with different streams")
	}
}
