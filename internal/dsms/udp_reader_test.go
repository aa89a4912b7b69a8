package dsms

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/stream"
)

// srcQuery is the i-th source's registration for the many-source tests.
func srcQuery(i int) stream.Query {
	return stream.Query{ID: fmt.Sprintf("q-%d", i), SourceID: fmt.Sprintf("src-%d", i), Delta: 0.5, Model: "linear"}
}

// newSourcesServer builds a server with nSrc sources registered and a
// UDPServer bound to loopback.
func newSourcesServer(t testing.TB, nSrc int) (*Server, *UDPServer) {
	t.Helper()
	s := NewServer(testCatalog())
	for i := 0; i < nSrc; i++ {
		if err := s.Register(srcQuery(i)); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := NewUDPServer(s, "127.0.0.1:0", UDPServerOptions{
		Engine: EngineOptions{Shards: 2, RingSize: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ts.Close()
		s.Engine().Close()
	})
	return s, ts
}

// TestUDPLaneRxAllocFree gates the reader's steady-state receive path on
// a two-shard server without tracing — per-batch histogram observe,
// preamble check, frame walk, update decode, id probe, ring handoff — at
// zero allocations per datagram, for a plain update datagram with no
// evidence trailer. TestUDPRxAllocFree gates the traced server and the
// trailer; the syscall half is TestUDPLaneRxAllocFreeGRO's.
func TestUDPLaneRxAllocFree(t *testing.T) {
	_, ts := newSourcesServer(t, 1)

	boot := core.Update{SourceID: srcQuery(0).SourceID, Seq: 0, Time: 0, Values: []float64{1}, Bootstrap: true}
	dg := updateDatagram(t, &boot)
	ts.processDatagram(dg, netip.AddrPort{})
	ts.eng.Quiesce()

	// Replaying the bootstrap's seq exercises the full rx path into the
	// shard's dedup drop. Warm several ring wraps first: each slot's
	// value buffer allocates once on first use.
	for wrap := 0; wrap < 4; wrap++ {
		for i := 0; i < 2048; i++ {
			ts.processDatagram(dg, netip.AddrPort{})
		}
		ts.eng.Quiesce()
	}
	n := testing.AllocsPerRun(200, func() {
		ts.batch.Observe(1)
		ts.processDatagram(dg, netip.AddrPort{})
	})
	ts.eng.Quiesce()
	if n != 0 {
		t.Fatalf("reader rx path allocates %v/datagram, want 0", n)
	}
}

// TestUDPOvertakenBootstrapCounted pins ROADMAP item 1's known loss
// without a socket: a stream's updates that the network delivers ahead of
// its bootstrap are dropped, each counted in pre_bootstrap_dropped, and
// the stream starts at its bootstrap; an update after it applies.
func TestUDPOvertakenBootstrapCounted(t *testing.T) {
	s, ts := newSourcesServer(t, 1)
	id := srcQuery(0).SourceID
	upd := func(seq int) []byte {
		return updateDatagram(t, &core.Update{SourceID: id, Seq: seq, Time: float64(seq), Values: []float64{float64(seq)}, Bootstrap: seq == 0})
	}
	const early = 5
	for seq := 1; seq <= early; seq++ {
		ts.processDatagram(upd(seq), netip.AddrPort{})
	}
	ts.processDatagram(upd(0), netip.AddrPort{})
	ts.eng.Quiesce()
	if got := s.Streamz().Engine.PreBootstrap; got != early {
		t.Fatalf("pre_bootstrap_dropped = %d, want %d: one per overtaken update", got, early)
	}
	if snap := nodeSnapshot(t, s, id); snap.Seq != 0 {
		t.Fatalf("stream at seq %d after its late bootstrap, want 0", snap.Seq)
	}
	ts.processDatagram(upd(early+1), netip.AddrPort{})
	ts.eng.Quiesce()
	if snap := nodeSnapshot(t, s, id); snap.Seq != early+1 {
		t.Fatalf("stream at seq %d, want %d: the update after the bootstrap applies", snap.Seq, early+1)
	}
	if got := s.Streamz().Engine.PreBootstrap; got != early {
		t.Fatalf("pre_bootstrap_dropped = %d after the bootstrap, want %d", got, early)
	}
}

// TestUDPConcurrentAnswer exercises the datagram path whole on real
// sockets: batched receive (recvmmsg where available), a sendmmsg-batched
// UDPBatcher feeding many sources, and a reader answering queries
// concurrently with ingest. Run under -race in CI, this is the
// ingest-vs-readers interleaving gate. Each stream's bootstrap is sent
// right before its updates with no wait between them: one reader keeps the
// socket's order, so every update sent is applied, and nothing is refused
// as a duplicate or as ahead of its bootstrap.
func TestUDPConcurrentAnswer(t *testing.T) {
	const nSrc, perSrc = 4, 200
	s, ts := newSourcesServer(t, nSrc)
	go ts.Serve()

	b, err := DialUDPBatcher(ts.Addr().String(), 200)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	eng := s.Engine()
	counters := func() string { return fmt.Sprintf("engine %+v", *s.Streamz().Engine) }
	update := func(i, seq int) core.Update {
		return core.Update{
			SourceID:  srcQuery(i).SourceID,
			Seq:       seq,
			Time:      float64(seq),
			Values:    []float64{float64(i) + 1.5*float64(seq)},
			Bootstrap: seq == 0,
		}
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				// Errors only before a stream's bootstrap has landed.
				_, _ = s.Answer(srcQuery(i%nSrc).ID, 0)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	sent := 0
	for seq := 0; seq < perSrc; seq++ {
		for i := 0; i < nSrc; i++ {
			if err := b.Send(update(i, seq)); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		// Bound sent-minus-applied so the socket buffer and rings never
		// overflow into loss on a slow machine.
		for eng.Applied()+1024 < uint64(sent) {
			runtime.Gosched()
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Applied() < uint64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("engine applied %d of %d sent updates; %s", eng.Applied(), sent, counters())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	reader.Wait()

	for i := 0; i < nSrc; i++ {
		snap := nodeSnapshot(t, s, srcQuery(i).SourceID)
		assertFiniteState(t, snap)
		if snap.Seq != perSrc-1 {
			t.Fatalf("src %d stopped at seq %d, want %d; %s", i, snap.Seq, perSrc-1, counters())
		}
	}
	z := s.Streamz()
	if n := engineDedupCount(s); n != 0 || z.Engine.PreBootstrap != 0 {
		t.Fatalf("dedup %d, pre-bootstrap %d, want 0 and 0; %s", n, z.Engine.PreBootstrap, counters())
	}

	// Scrape surfaces: the reader's batch histogram must be visible in
	// both /streamz and the Prometheus exposition, and count every
	// datagram the engine block counts.
	if len(z.Engine.Lanes) != 1 {
		t.Fatalf("streamz reader block missing or wrong size: %+v", z.Engine.Lanes)
	}
	l := z.Engine.Lanes[0]
	if l.Batches == 0 || l.AvgBatch < 1 {
		t.Fatalf("reader block flat or implausible after e2e run: %+v", l)
	}
	if rx := math.Round(l.AvgBatch * float64(l.Batches)); rx != float64(z.Engine.DatagramsRx) {
		t.Fatalf("reader batches hold %v datagrams, engine datagrams_rx %d", rx, z.Engine.DatagramsRx)
	}
	var buf bytes.Buffer
	s.Telemetry().WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "dkf_udp_rx_batch_size") {
		t.Fatal("Prometheus exposition missing dkf_udp_rx_batch_size")
	}
}

// TestUDPBatcherOnePerDatagram pins the per-source-agent wire shape: a
// flushBytes below one frame seals after every update, so each update
// travels in its own datagram.
func TestUDPBatcherOnePerDatagram(t *testing.T) {
	q := udpQuery()
	s, ts := newUDPPair(t, q)
	go ts.Serve()

	b, err := DialUDPBatcher(ts.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := s.InstallFor(q.SourceID); err != nil {
		t.Fatal(err)
	}
	const n = 50
	eng := s.Engine()
	deadline := time.Now().Add(5 * time.Second)
	for seq := 0; seq < n; seq++ {
		u := core.Update{SourceID: q.SourceID, Seq: seq, Time: float64(seq), Values: []float64{float64(seq)}, Bootstrap: seq == 0}
		if err := b.Send(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for eng.Applied() < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine applied %d of %d", eng.Applied(), n)
		}
		time.Sleep(time.Millisecond)
	}
	// One update per datagram: the datagram counter must equal the
	// update count (plus nothing else on this socket).
	if z := s.Streamz(); z.Engine.DatagramsRx != n {
		t.Fatalf("datagrams_rx = %d, want %d (one update per datagram)", z.Engine.DatagramsRx, n)
	}
	snap := nodeSnapshot(t, s, q.SourceID)
	if snap.Seq != n-1 {
		t.Fatalf("final seq %d, want %d", snap.Seq, n-1)
	}
	if math.IsNaN(snap.X[0]) {
		t.Fatal("state corrupted")
	}
}
