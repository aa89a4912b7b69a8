package cluster

import (
	"net"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
	"streamkf/internal/trace"
	"streamkf/internal/wal"
)

// TestRouterRunTwoSources: one downstream connection carrying two
// sources writes their updates interleaved in one piece, so the router
// relays them as one run of several sub-runs. Each route keeps its own
// order (every update applies, none is refused as stale), each shard ack
// finds its own route and the connection sees both streams acked through
// their last seq.
//
// Traced — tracing router, tracing SyncAlways shards, every update
// carrying its evidence — it is the same run: one relay per sub-run and
// runs, not singles, at the shards, with each update's hop on its
// route's recorder under its own trace id.
func TestRouterRunTwoSources(t *testing.T) {
	for name, traced := range map[string]bool{"untraced": false, "traced": true} {
		t.Run(name, func(t *testing.T) { testRouterRunTwoSources(t, traced) })
	}
}

func testRouterRunTwoSources(t *testing.T, traced bool) {
	var r *Router
	var servers []*dsms.Server
	if !traced {
		r, servers = startCluster(t, 2, Options{})
	} else {
		addrs := make([]string, 2)
		for i := range addrs {
			s, err := dsms.Open(testCatalog(), t.TempDir(), dsms.DurabilityOptions{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			s.EnableTracing(trace.Options{})
			servers, addrs[i] = append(servers, s), startShard(t, s, i).Addr()
		}
		var err error
		if r, err = NewRouter("127.0.0.1:0", addrs, Options{Trace: true, TraceRing: 1024}); err != nil {
			t.Fatal(err)
		}
		go r.Serve()
		t.Cleanup(func() { r.Close() })
	}
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
	if _, feats, err := rd.ReadPreamble(); err != nil || (feats&wire.FeatEvidence != 0) != traced {
		t.Fatalf("router preamble feats %#02x, %v; evidence bit wanted: %v", feats, err, traced)
	}
	for i := 0; i < 2; i++ {
		if tag, _, err := rd.Next(); err != nil || tag != wire.TagInstall {
			t.Fatalf("handshake reply %v, %v", tag, err)
		}
	}
	fsyncs := func() (total int64) {
		for _, s := range servers {
			v, _ := s.Telemetry().Get("streamkf_wal_fsyncs_total")
			total += int64(v)
		}
		return total
	}
	synced := fsyncs()
	// left runs seqs 0..n-1, right 1000..1000+n-1, in uneven turns; traced,
	// an update's trace id is its seq + 1.
	const n = 120
	next := map[string]int{"left": 0, "right": 1000}
	for sent, turn := 0, 0; sent < 2*n; turn++ {
		id := []string{"left", "right"}[turn%2]
		for k := 0; k <= turn%5 && next[id]%1000 < n; k++ {
			seq := next[id]
			u := core.Update{SourceID: id, Seq: seq, Time: float64(seq), Values: []float64{float64(seq)}, Bootstrap: seq%1000 == 0}
			var ev *trace.Event
			if traced {
				ev = &trace.Event{TraceID: int64(seq) + 1, Kind: trace.KindDecision, Dec: trace.DecisionSend, Value: u.Values[0], Delta: 1e-9}
			}
			if err := w.Update(&u, ev); err != nil {
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
	if !traced {
		return
	}
	// A turn is 1–5 updates (3 on average) and a relay or a shard's run
	// ends early only where a socket read does: well under n/2 of each.
	if got := fsyncs() - synced; got > n {
		t.Fatalf("%d traced updates cost the shards %d fsyncs: they saw singles, not runs", 2*n, got)
	}
	for _, rt := range r.allRoutes() {
		hops := map[trace.Kind]map[int64]bool{}
		relays := map[int64]bool{}
		for _, ev := range rt.rec.Events() {
			if ev.TraceID != ev.Seq+1 {
				t.Fatalf("route %s: event %+v is not under its own update's trace id", rt.sourceID, ev)
			}
			if hops[ev.Kind] == nil {
				hops[ev.Kind] = map[int64]bool{}
			}
			hops[ev.Kind][ev.Seq] = true
			if ev.Kind == trace.KindFwdTx {
				relays[ev.At] = true
			}
		}
		for _, kind := range []trace.Kind{trace.KindFwdRx, trace.KindFwdTx, trace.KindFwdAck} {
			if len(hops[kind]) != n {
				t.Fatalf("route %s recorded %v for %d of %d traced updates", rt.sourceID, kind, len(hops[kind]), n)
			}
		}
		if len(relays) > n/2 {
			t.Fatalf("route %s: %d updates went out in %d relays: one per update, not one per sub-run", rt.sourceID, n, len(relays))
		}
	}
}
