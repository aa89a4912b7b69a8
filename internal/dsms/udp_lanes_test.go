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
	"streamkf/internal/gen"
	"streamkf/internal/netsim"
	"streamkf/internal/stream"
)

// laneQuery is the i-th source's registration for the multi-lane tests.
func laneQuery(i int) stream.Query {
	return stream.Query{ID: fmt.Sprintf("q-%d", i), SourceID: fmt.Sprintf("src-%d", i), Delta: 0.5, Model: "linear"}
}

func laneData(i int) []stream.Reading {
	return gen.Ramp(240, float64(i), 1.5, 0.3, int64(17+i))
}

// newLaneServer builds a server with nSrc sources registered and a
// multi-lane UDPServer bound to loopback.
func newLaneServer(t testing.TB, nSrc, lanes, rxBatch int) (*Server, *UDPServer) {
	t.Helper()
	s := NewServer(testCatalog())
	for i := 0; i < nSrc; i++ {
		if err := s.Register(laneQuery(i)); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := NewUDPServer(s, "127.0.0.1:0", UDPServerOptions{
		Lanes:   lanes,
		RxBatch: rxBatch,
		Engine:  EngineOptions{Shards: 2, RingSize: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ts.Close()
		s.Engine().Close()
	})
	if got := ts.Lanes(); got != lanes {
		t.Fatalf("server runs %d lanes, want %d", got, lanes)
	}
	return s, ts
}

// TestUDPMultiLaneLossySemantics is the multi-lane transport-equivalence
// gate: sources are assigned sticky to lanes (per-source datagram order
// preserved, as one socket flow would be), every lane misbehaves per its
// own netsim schedule, and all lanes parse concurrently. The state each
// stream reaches must be bit-identical to a single-lane server fed that
// stream's surviving subsequence in order — lanes add concurrency, never
// new semantics. Runs under -race in CI for the lane-concurrency claim.
func TestUDPMultiLaneLossySemantics(t *testing.T) {
	const nSrc, lanes = 6, 3
	links := []netsim.Link{
		{},
		{DupEvery: 3},
		{SwapEvery: 4},
		{DropEvery: 5},
		{DropEvery: 7, DupEvery: 3, SwapEvery: 5},
		{DupEvery: 2},
	}

	s, ts := newLaneServer(t, nSrc, lanes, 8)
	ups := make([][]core.Update, nSrc)
	want := make([][]core.Update, nSrc)
	wantDedup := 0
	// Pre-encode every source's datagrams in arrival order so the lane
	// goroutines do nothing but deliver.
	dgs := make([][][]byte, nSrc)
	for i := 0; i < nSrc; i++ {
		ups[i] = makeUpdates(t, laneQuery(i), laneData(i))
		order := links[i].Schedule(len(ups[i]))
		var dedup, preBoot int
		want[i], dedup, preBoot = surviving(ups[i], order)
		if preBoot != 0 || len(want[i]) == 0 || !want[i][0].Bootstrap {
			t.Fatalf("src %d: schedule delayed the bootstrap", i)
		}
		wantDedup += dedup
		for _, idx := range order {
			dgs[i] = append(dgs[i], updateDatagram(t, &ups[i][idx]))
		}
	}

	// Sticky assignment: source i always arrives on lane i%lanes. Each
	// lane interleaves its sources round-robin — cross-source order is
	// arbitrary, per-source order is the schedule's.
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			ln := ts.lanes[l]
			for pos := 0; ; pos++ {
				sent := false
				for i := l; i < nSrc; i += lanes {
					if pos < len(dgs[i]) {
						ln.processDatagram(dgs[i][pos], netip.AddrPort{})
						sent = true
					}
				}
				if !sent {
					return
				}
			}
		}(l)
	}
	wg.Wait()
	ts.eng.Quiesce()
	for _, sh := range ts.eng.Stats() {
		if sh.Dropped != 0 {
			t.Fatalf("engine shed %d updates; ring sized too small for the test", sh.Dropped)
		}
	}

	for i := 0; i < nSrc; i++ {
		q := laneQuery(i)
		ref := refServer(t, q, want[i])
		snap := nodeSnapshot(t, s, q.SourceID)
		assertSameState(t, snap, nodeSnapshot(t, ref, q.SourceID))
		assertFiniteState(t, snap)
	}
	if got := engineDedupCount(s); got != wantDedup {
		t.Fatalf("dedup counter = %d, schedules imply %d", got, wantDedup)
	}
}

// TestUDPLaneRxAllocFree gates a non-primary lane's steady-state receive
// path — per-batch histogram observe, preamble check, frame walk, update
// decode, per-lane intern, ring handoff — at zero allocations per
// datagram. This is the per-datagram work the lane loop repeats between
// receive syscalls; the syscall half is covered by the end-to-end lane
// tests.
func TestUDPLaneRxAllocFree(t *testing.T) {
	s, ts := newLaneServer(t, 1, 2, 8)
	_ = s
	ln := ts.lanes[1]

	boot := core.Update{SourceID: laneQuery(0).SourceID, Seq: 0, Time: 0, Values: []float64{1}, Bootstrap: true}
	dg := updateDatagram(t, &boot)
	ln.processDatagram(dg, netip.AddrPort{})
	ts.eng.Quiesce()

	// Replaying the bootstrap's seq exercises the full rx path into the
	// shard's dedup drop. Warm several ring wraps first: each slot's
	// value buffer allocates once on first use.
	for wrap := 0; wrap < 4; wrap++ {
		for i := 0; i < 2048; i++ {
			ln.processDatagram(dg, netip.AddrPort{})
		}
		ts.eng.Quiesce()
	}
	n := testing.AllocsPerRun(200, func() {
		ln.lane.batch.Observe(1)
		ln.processDatagram(dg, netip.AddrPort{})
	})
	ts.eng.Quiesce()
	if n != 0 {
		t.Fatalf("lane rx path allocates %v/datagram, want 0", n)
	}
}

// TestUDPLanesOvertakenBootstrapCounted pins ROADMAP item 1's known loss
// without a socket: a stream's updates that one lane hands the engine
// before another lane's bootstrap of that stream is applied are dropped,
// each counted in pre_bootstrap_dropped, and the stream starts at its
// bootstrap; an update after it applies.
func TestUDPLanesOvertakenBootstrapCounted(t *testing.T) {
	s, ts := newLaneServer(t, 1, 2, 8)
	id := laneQuery(0).SourceID
	upd := func(seq int) []byte {
		return updateDatagram(t, &core.Update{SourceID: id, Seq: seq, Time: float64(seq), Values: []float64{float64(seq)}, Bootstrap: seq == 0})
	}
	const early = 5
	for seq := 1; seq <= early; seq++ {
		ts.lanes[1].processDatagram(upd(seq), netip.AddrPort{})
	}
	ts.eng.Quiesce()
	ts.lanes[0].processDatagram(upd(0), netip.AddrPort{})
	ts.eng.Quiesce()
	if got := s.Streamz().Engine.PreBootstrap; got != early {
		t.Fatalf("pre_bootstrap_dropped = %d, want %d: one per overtaken update", got, early)
	}
	if snap := nodeSnapshot(t, s, id); snap.Seq != 0 {
		t.Fatalf("stream at seq %d after its late bootstrap, want 0", snap.Seq)
	}
	ts.lanes[1].processDatagram(upd(early+1), netip.AddrPort{})
	ts.eng.Quiesce()
	if snap := nodeSnapshot(t, s, id); snap.Seq != early+1 {
		t.Fatalf("stream at seq %d, want %d: the update after the bootstrap applies", snap.Seq, early+1)
	}
	if got := s.Streamz().Engine.PreBootstrap; got != early {
		t.Fatalf("pre_bootstrap_dropped = %d after the bootstrap, want %d", got, early)
	}
}

// TestUDPLanesConcurrentAnswer exercises the datagram path whole on real
// sockets: multi-lane batched receive (recvmmsg where available), a
// sendmmsg-batched UDPBatcher feeding many sources, and a reader answering
// queries concurrently with ingest. Run under -race in CI, this is the
// lanes-vs-readers interleaving gate; the assertions pin that everything
// sent is applied and no filter corrupts. The bootstraps land before the
// streams start, so that one lane cannot run a stream's updates ahead of
// another's bootstrap (TestUDPLanesOvertakenBootstrapCounted).
func TestUDPLanesConcurrentAnswer(t *testing.T) {
	const nSrc, perSrc = 4, 200
	s, ts := newLaneServer(t, nSrc, 2, 8)
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
			SourceID:  laneQuery(i).SourceID,
			Seq:       seq,
			Time:      float64(seq),
			Values:    []float64{float64(i) + 1.5*float64(seq)},
			Bootstrap: seq == 0,
		}
	}
	for i := 0; i < nSrc; i++ {
		if err := b.Send(update(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Applied() < nSrc {
		if time.Now().After(deadline) {
			t.Fatalf("engine applied %d of %d bootstraps; %s", eng.Applied(), nSrc, counters())
		}
		time.Sleep(time.Millisecond)
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
				_, _ = s.Answer(laneQuery(i%nSrc).ID, 0)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	sent := nSrc
	for seq := 1; seq < perSrc; seq++ {
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
	deadline = time.Now().Add(10 * time.Second)
	for eng.Applied() < uint64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("engine applied %d of %d sent updates; %s", eng.Applied(), sent, counters())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	reader.Wait()

	for i := 0; i < nSrc; i++ {
		snap := nodeSnapshot(t, s, laneQuery(i).SourceID)
		assertFiniteState(t, snap)
		if snap.Seq < perSrc-1 {
			t.Fatalf("src %d stopped at seq %d, want >= %d; %s", i, snap.Seq, perSrc-1, counters())
		}
	}

	// Scrape surfaces: the lane counters and batch histogram must be
	// visible in both /streamz and the Prometheus exposition.
	z := s.Streamz()
	if z.Engine == nil || len(z.Engine.Lanes) != 2 {
		t.Fatalf("streamz lanes block missing or wrong size: %+v", z.Engine)
	}
	var laneRxTotal, batches int64
	for _, l := range z.Engine.Lanes {
		laneRxTotal += l.DatagramsRx
		batches += l.Batches
		if l.Batches > 0 && l.AvgBatch < 1 {
			t.Fatalf("lane %d: avg batch %v < 1 with %d batches", l.Lane, l.AvgBatch, l.Batches)
		}
	}
	if laneRxTotal == 0 || batches == 0 {
		t.Fatalf("lane counters flat after e2e run: rx %d, batches %d", laneRxTotal, batches)
	}
	if laneRxTotal != z.Engine.DatagramsRx {
		t.Fatalf("lane rx sums to %d, engine datagrams_rx %d", laneRxTotal, z.Engine.DatagramsRx)
	}
	var buf bytes.Buffer
	s.Telemetry().WritePrometheus(&buf)
	for _, want := range []string{"dkf_udp_lane_datagrams_rx_total", "dkf_udp_lane_batch_size", `lane="0"`, `lane="1"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Prometheus exposition missing %s", want)
		}
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
		// The bootstrap lands before anything follows it: a lane holding
		// it in a receive batch while the other lane runs ahead would have
		// the rest dropped as pre-bootstrap (19 runs in 3,600 under load).
		for seq == 0 && eng.Applied() < 1 && time.Now().Before(deadline) {
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
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
