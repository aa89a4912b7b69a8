package cluster

import (
	"net"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
)

// TestRouterRunTwoSources: one downstream connection carrying two
// sources writes their updates interleaved in one piece, so the router
// relays them as one run of several sub-runs. Each route keeps its own
// order (every update applies, none is refused as stale), each shard ack
// finds its own route (both pending windows drain) and the connection
// sees both streams acked through their last seq.
func TestRouterRunTwoSources(t *testing.T) {
	r, servers := startCluster(t, 2, Options{})
	for _, id := range []string{"left", "right"} {
		if err := r.RegisterQuery(stream.Query{ID: "q-" + id, SourceID: id, Delta: 1e-9, Model: "constant"}); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w, rd := wire.NewWriter(conn, 64<<10, 0), wire.NewReader(conn, 0, 0)
	w.WritePreamble(wire.Version, 0)
	w.Hello("left")
	w.Hello("right")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rd.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if tag, _, err := rd.Next(); err != nil || tag != wire.TagInstall {
			t.Fatalf("handshake reply %v, %v", tag, err)
		}
	}
	// left runs seqs 0..n-1, right 1000..1000+n-1, in uneven turns.
	const n = 120
	next := map[string]int{"left": 0, "right": 1000}
	for sent, turn := 0, 0; sent < 2*n; turn++ {
		id := []string{"left", "right"}[turn%2]
		for k := 0; k <= turn%5 && next[id]%1000 < n; k++ {
			seq := next[id]
			u := core.Update{SourceID: id, Seq: seq, Time: float64(seq), Values: []float64{float64(seq)}, Bootstrap: seq%1000 == 0}
			if err := w.Update(&u); err != nil {
				t.Fatal(err)
			}
			next[id]++
			sent++
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Downstream acks carry a seq only; the two ranges tell them apart.
	acked := map[string]int64{"left": -1, "right": -1}
	for acked["left"] < n-1 || acked["right"] < 1000+n-1 {
		tag, p, err := rd.Next()
		if err != nil {
			t.Fatalf("acked through %v, then %v", acked, err)
		}
		if tag != wire.TagAck {
			msg, _ := wire.DecodeError(p)
			t.Fatalf("unexpected %v frame %q", tag, msg)
		}
		seq, _ := wire.DecodeAck(p)
		id := "left"
		if seq >= 1000 {
			id = "right"
		}
		if seq < acked[id] {
			t.Fatalf("%s acked %d after %d", id, seq, acked[id])
		}
		acked[id] = seq
	}
	applied := 0
	for _, s := range servers {
		for _, st := range s.Stats() {
			applied += st.Updates
		}
	}
	if applied != 2*n {
		t.Fatalf("shards applied %d updates, want %d", applied, 2*n)
	}
	for _, rt := range r.allRoutes() {
		rt.pendMu.Lock()
		left := len(rt.pending)
		rt.pendMu.Unlock()
		if left != 0 {
			t.Fatalf("route %s still holds %d pending updates after its last ack", rt.sourceID, left)
		}
	}
}
