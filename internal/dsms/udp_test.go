package dsms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/gen"
	"streamkf/internal/netsim"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
)

// udpQuery is the shared registration for the datagram-semantics tests:
// a linear model with a delta loose enough that suppression leaves a
// mixed applied/suppressed trace, tight enough to produce ~10²  updates
// from udpData.
func udpQuery() stream.Query {
	return stream.Query{ID: "q1", SourceID: "src", Delta: 0.5, Model: "linear"}
}

func udpData() []stream.Reading { return gen.Ramp(360, 0, 1.5, 0.3, 13) }

// makeUpdates runs the DKF suppression protocol over data on a scratch
// server and captures the transmitted update sequence — the exact
// packets any transport would carry.
func makeUpdates(t testing.TB, q stream.Query, data []stream.Reading) []core.Update {
	t.Helper()
	s := NewServer(testCatalog())
	if err := s.Register(q); err != nil {
		t.Fatal(err)
	}
	cfg, err := s.InstallFor(q.SourceID)
	if err != nil {
		t.Fatal(err)
	}
	var ups []core.Update
	agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error {
		u.Values = append([]float64(nil), u.Values...)
		ups = append(ups, u)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Run(stream.NewSliceSource(data)); err != nil {
		t.Fatal(err)
	}
	if len(ups) < 20 || len(ups) >= len(data) {
		t.Fatalf("replay produced %d updates over %d readings; want a mixed trace", len(ups), len(data))
	}
	return ups
}

// newUDPPair builds a server with q registered and a UDPServer bound to
// loopback. Tests that feed processDatagram directly never start Serve;
// the socket only matters for the end-to-end test.
func newUDPPair(t testing.TB, q stream.Query) (*Server, *UDPServer) {
	t.Helper()
	s := NewServer(testCatalog())
	if err := s.Register(q); err != nil {
		t.Fatal(err)
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

// updateDatagram encodes u as one self-describing datagram.
func updateDatagram(t testing.TB, u *core.Update) []byte {
	t.Helper()
	b := wire.AppendPreamble(nil, wire.Version, 0)
	b, err := wire.AppendUpdateFrame(b, u)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// deliver feeds updates to the UDP server in the given arrival order
// (one datagram each, schedule indices from netsim.Link) and waits for
// the engine to drain.
func deliver(t testing.TB, ts *UDPServer, ups []core.Update, order []int) {
	t.Helper()
	for _, idx := range order {
		ts.processDatagram(updateDatagram(t, &ups[idx]), netip.AddrPort{})
	}
	ts.eng.Quiesce()
	for _, sh := range ts.eng.Stats() {
		if sh.Dropped != 0 {
			t.Fatalf("engine shed %d updates; ring sized too small for the test", sh.Dropped)
		}
	}
}

// surviving applies the engine's datagram-dedup rules to an arrival
// order and returns the subsequence that reaches the filter, plus the
// expected dedup / pre-bootstrap drop counts.
func surviving(ups []core.Update, order []int) (applied []core.Update, dedup, preBoot int) {
	last := -1
	for _, idx := range order {
		u := ups[idx]
		if last >= 0 && u.Seq <= last {
			dedup++
			continue
		}
		if !u.Bootstrap && last < 0 {
			preBoot++
			continue
		}
		applied = append(applied, u)
		last = u.Seq
	}
	return applied, dedup, preBoot
}

// refServer applies ups in order through the synchronous HandleUpdate
// path — the TCP trajectory — and returns the server.
func refServer(t testing.TB, q stream.Query, ups []core.Update) *Server {
	t.Helper()
	s := NewServer(testCatalog())
	if err := s.Register(q); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallFor(q.SourceID); err != nil {
		t.Fatal(err)
	}
	for i := range ups {
		if err := s.HandleUpdate(ups[i]); err != nil {
			t.Fatalf("HandleUpdate(seq %d): %v", ups[i].Seq, err)
		}
	}
	return s
}

// nodeSnapshot grabs the full filter state (x, P, indices, health) of a
// source on s.
func nodeSnapshot(t testing.TB, s *Server, id string) *core.NodeSnapshot {
	t.Helper()
	st := s.source(id)
	if st == nil {
		t.Fatalf("source %q not on server", id)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.node.Installed() {
		t.Fatalf("source %q not installed", id)
	}
	snap := st.node.Snapshot()
	if snap == nil {
		t.Fatalf("source %q not bootstrapped", id)
	}
	return snap
}

// assertSameState asserts bit-identical filter state: every element of
// x and P compared with ==, no tolerance.
func assertSameState(t *testing.T, got, want *core.NodeSnapshot) {
	t.Helper()
	if got.Seq != want.Seq || got.K != want.K || got.Ticks != want.Ticks {
		t.Fatalf("indices diverged: got (seq %d, k %d, ticks %d), want (seq %d, k %d, ticks %d)",
			got.Seq, got.K, got.Ticks, want.Seq, want.K, want.Ticks)
	}
	if len(got.X) != len(want.X) || len(got.P) != len(want.P) {
		t.Fatalf("state dims diverged: got %d/%d, want %d/%d", len(got.X), len(got.P), len(want.X), len(want.P))
	}
	for i := range got.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("x[%d] = %v, want %v (bit-identical)", i, got.X[i], want.X[i])
		}
	}
	for i := range got.P {
		if got.P[i] != want.P[i] {
			t.Fatalf("P[%d] = %v, want %v (bit-identical)", i, got.P[i], want.P[i])
		}
	}
	if got.NISValid != want.NISValid || (got.NISValid && got.LastNIS != want.LastNIS) {
		t.Fatalf("NIS diverged: got (%v, %v), want (%v, %v)", got.LastNIS, got.NISValid, want.LastNIS, want.NISValid)
	}
}

func assertFiniteState(t *testing.T, snap *core.NodeSnapshot) {
	t.Helper()
	for i, v := range snap.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("x[%d] = %v: state corrupted", i, v)
		}
	}
	for i, v := range snap.P {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("P[%d] = %v: covariance corrupted", i, v)
		}
	}
}

func engineDedupCount(s *Server) int {
	z := s.engineStreamz()
	total := 0
	for _, sh := range z.PerShard {
		total += int(sh.Dedup)
	}
	return total
}

// TestUDPTrajectoryBitIdenticalToTCPInOrder is the transport-equivalence
// acceptance gate: the same update sequence delivered in order over
// datagrams must leave the server filter bit-identical — x, P, indices,
// NIS — to the synchronous TCP apply path.
func TestUDPTrajectoryBitIdenticalToTCPInOrder(t *testing.T) {
	q := udpQuery()
	ups := makeUpdates(t, q, udpData())
	ref := refServer(t, q, ups)

	s, ts := newUDPPair(t, q)
	order := netsim.Link{}.Schedule(len(ups)) // identity
	deliver(t, ts, ups, order)

	assertSameState(t, nodeSnapshot(t, s, q.SourceID), nodeSnapshot(t, ref, q.SourceID))
	if n := engineDedupCount(s); n != 0 {
		t.Fatalf("in-order delivery hit the dedup path %d times", n)
	}

	// The equivalence must also be visible through the query surface.
	last := ups[len(ups)-1].Seq
	got, err := s.Answer(q.ID, last)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Answer(q.ID, last)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Answer[%d] = %v over UDP, %v over TCP", i, got[i], want[i])
		}
	}
}

// TestUDPLossyLinkSemantics drives the datagram path through
// deterministic netsim.Link misbehavior and pins the loss-tolerance
// contract: duplicates are seq-deduped bit-identically to the in-order
// TCP trajectory, reordering degrades to loss of the delayed update
// (never a mis-ordered apply), and loss only delays convergence —
// the state the filter does reach is bit-identical to a TCP server fed
// the surviving subsequence, and x/P stay finite and tracking.
func TestUDPLossyLinkSemantics(t *testing.T) {
	q := udpQuery()
	data := udpData()
	ups := makeUpdates(t, q, data)
	truth := data[len(data)-1].Values[0]

	cases := []struct {
		name string
		link netsim.Link
	}{
		// Every 3rd datagram delivered twice: first arrivals stay in seq
		// order, so the applied trajectory is the full in-order one.
		{"duplication", netsim.Link{DupEvery: 3}},
		// Adjacent swaps invert seq order pairwise: the delayed older
		// update arrives stale and is dropped — reordering degrades to
		// loss, never to out-of-order apply.
		{"reorder", netsim.Link{SwapEvery: 4}},
		// Every 5th datagram vanishes: the prediction covers the gap
		// until the next transmission.
		{"loss", netsim.Link{DropEvery: 5}},
		// All three at once.
		{"lossy", netsim.Link{DropEvery: 7, DupEvery: 3, SwapEvery: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			order := tc.link.Schedule(len(ups))
			want, dedup, preBoot := surviving(ups, order)
			if preBoot != 0 {
				t.Fatalf("schedule delayed the bootstrap; pick knobs that keep position 0 first")
			}
			if len(want) == 0 || !want[0].Bootstrap {
				t.Fatalf("surviving subsequence unusable: %d updates", len(want))
			}

			s, ts := newUDPPair(t, q)
			deliver(t, ts, ups, order)

			// Bit-identical to the TCP trajectory over what survived the
			// link. For pure duplication the surviving subsequence IS the
			// full in-order sequence, so this is the dedup≡in-order claim.
			ref := refServer(t, q, want)
			snap := nodeSnapshot(t, s, q.SourceID)
			assertSameState(t, snap, nodeSnapshot(t, ref, q.SourceID))
			if got := engineDedupCount(s); got != dedup {
				t.Fatalf("dedup counter = %d, schedule implies %d", got, dedup)
			}

			// Convergence: never corrupted, still tracking the ramp at the
			// stream's end despite whatever the link withheld.
			assertFiniteState(t, snap)
			ans, err := s.Answer(q.ID, data[len(data)-1].Seq)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ans[0]-truth) > 10 {
				t.Fatalf("answer %v after lossy link, truth %v: lost convergence", ans[0], truth)
			}
		})
	}
}

// TestUDPIngestLoopbackEndToEnd exercises the real sockets: retried
// hello handshake, datagram agent, socket reader, engine apply.
func TestUDPIngestLoopbackEndToEnd(t *testing.T) {
	q := udpQuery()
	s, ts := newUDPPair(t, q)
	go ts.Serve()

	agent, err := DialSourceUDP(ts.Addr().String(), q.SourceID, testCatalog(), UDPDialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if inst := agent.inst; inst.Model != q.Model || inst.Delta != q.Delta {
		t.Fatalf("install reply %+v does not match registration", inst)
	}
	if inst := agent.inst; inst.ResumeSeq != -1 {
		t.Fatalf("fresh source got ResumeSeq %d", inst.ResumeSeq)
	}

	data := udpData()
	for _, r := range data {
		if _, err := agent.Offer(r); err != nil {
			t.Fatal(err)
		}
	}
	ast := agent.Stats()

	// Fire-and-forget transport: wait for the socket reader and engine
	// to drain everything the agent transmitted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sts := s.Stats()
		if len(sts) == 1 && sts[0].Updates == ast.Updates {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server stats %+v never reached agent's %d updates", sts, ast.Updates)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The bootstrap rides in triplicate; the extras land in dedup. One
	// reader keeps the socket's order, so nothing overtakes the bootstrap.
	if n := engineDedupCount(s); n != 2 {
		t.Fatalf("dedup counter = %d, want 2 (duplicated bootstrap copies)", n)
	}
	if n := engineBlock(t, s).PreBootstrap; n != 0 {
		t.Fatalf("pre_bootstrap_dropped = %d, want 0", n)
	}
	ans, err := s.Answer(q.ID, data[len(data)-1].Seq)
	if err != nil {
		t.Fatal(err)
	}
	truth := data[len(data)-1].Values[0]
	if math.Abs(ans[0]-truth) > 10 {
		t.Fatalf("answer %v, truth %v", ans[0], truth)
	}
}

// TestUDPRxAllocFree gates the steady-state datagram receive path —
// per-batch histogram observe, preamble check, frame walk, update decode,
// id probe, ring handoff, shard dedup — at zero allocations per datagram.
// The syscall half is TestUDPLaneRxAllocFreeGRO's, and the untraced
// two-shard case TestUDPLaneRxAllocFree's. Its datagram carries an
// evidence trailer, which UDP has no capability to ask for:
// the update is applied all the same and the evidence ignored, even by a
// tracing server.
func TestUDPRxAllocFree(t *testing.T) {
	q := udpQuery()
	s, ts := newUDPPair(t, q)
	s.EnableTracing(trace.Options{})

	boot := core.Update{SourceID: q.SourceID, Seq: 0, Time: 0, Values: []float64{1}, Bootstrap: true}
	ev := trace.Event{TraceID: 77, Kind: trace.KindDecision, Dec: trace.DecisionBootstrap, Raw: 1, Value: 1, Delta: q.Delta}
	dg := wire.BeginFrame(wire.AppendPreamble(nil, wire.Version, 0), wire.TagUpdate)
	dg, err := wire.AppendTracedUpdate(dg, &boot, &ev)
	if err == nil {
		dg, err = wire.EndFrame(dg, 6)
	}
	if err != nil {
		t.Fatal(err)
	}
	ts.processDatagram(dg, netip.AddrPort{})
	ts.eng.Quiesce()
	if st := s.Stats()[0]; st.Updates != 1 {
		t.Fatalf("a datagram update with a trailer was applied %d times, want 1", st.Updates)
	}
	tr, err := s.TraceStream(q.SourceID)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if e.Kind == "decision" || e.TraceID != 0 {
			t.Fatalf("the datagram's evidence reached the trail: %+v", e)
		}
	}

	// Replaying the bootstrap's seq exercises the full rx path into the
	// shard's dedup drop — the steady-state shape for duplicated
	// datagrams — without the apply step's own budget (gated separately
	// by TestUDPIngestAllocBudget). Warm two full ring wraps first:
	// every slot's value buffer allocates once on its first use, and the
	// steady-state claim starts after that.
	for wrap := 0; wrap < 4; wrap++ {
		for i := 0; i < 2048; i++ { // half the ring: quiesce before it can fill and shed
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
		t.Fatalf("UDP rx path allocates %v/datagram, want 0", n)
	}
}

// TestUDPIngestAllocBudget gates the steady-state shard apply path —
// datagram parse, source intern, ring handoff, filter apply — at zero
// allocations per applied update.
func TestUDPIngestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	const budget = 0
	res := testing.Benchmark(benchUDPIngestApply)
	if got := res.AllocsPerOp(); got > budget {
		t.Fatalf("UDP shard apply allocates %d/op, budget %d/op", got, budget)
	}
}

// TestEngineTelemetryScrape asserts the per-shard occupancy and
// datagram counters are visible through both operator surfaces: the
// /streamz JSON document and the Prometheus exposition.
func TestEngineTelemetryScrape(t *testing.T) {
	q := udpQuery()
	ups := makeUpdates(t, q, udpData())
	s, ts := newUDPPair(t, q)
	deliver(t, ts, ups, netsim.Link{DupEvery: 2}.Schedule(len(ups)))

	z := s.Streamz()
	if z.Engine == nil {
		t.Fatal("Streamz has no engine block with an engine attached")
	}
	if z.Engine.Shards != 2 || len(z.Engine.PerShard) != 2 {
		t.Fatalf("engine block reports %d shards / %d rows, want 2", z.Engine.Shards, len(z.Engine.PerShard))
	}
	var applied, dedup int64
	for _, sh := range z.Engine.PerShard {
		applied += sh.Applied
		dedup += sh.Dedup
	}
	if applied != int64(len(ups)) {
		t.Fatalf("per-shard applied sums to %d, want %d", applied, len(ups))
	}
	if dedup == 0 {
		t.Fatal("duplicated delivery left dedup counter at 0")
	}
	if z.Engine.DatagramsRx == 0 || z.Engine.FramesRx < z.Engine.DatagramsRx {
		t.Fatalf("datagram counters implausible: rx %d, frames %d", z.Engine.DatagramsRx, z.Engine.FramesRx)
	}
	raw, err := json.Marshal(z)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"engine"`, `"per_shard"`, `"ring_depth_hwm"`, `"datagrams_rx"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("/streamz JSON missing %s:\n%s", want, raw)
		}
	}

	var buf bytes.Buffer
	s.Telemetry().WritePrometheus(&buf)
	for _, want := range []string{
		"dkf_engine_applied_total", "dkf_engine_dedup_total",
		"dkf_engine_ring_depth_hwm", "dkf_udp_datagrams_rx_total",
		"dkf_udp_frames_rx_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Prometheus exposition missing %s", want)
		}
	}
}

// TestLaneDatagramOutcome pins what the UDP reader makes of one fixed
// datagram sequence on a one-shard engine with an 8-slot ring, quiescing
// between datagrams: the engine block, the wire counters, each stream's
// counts and its filter, bit for bit against a server that applied only
// the updates the reader should have kept. The sequence crosses every edge
// of the reader's batch of parsed updates (32): a datagram longer than the
// batch with unknown ids on both sides of the cut, an update ahead of its
// bootstrap and a duplicated bootstrap, a hello between updates, a ring
// that fills partway through a datagram, and an update with an unknown
// flag bit and a truncated frame each after valid updates.
func TestLaneDatagramOutcome(t *testing.T) {
	s := NewServer(testCatalog())
	ref := NewServer(testCatalog())
	for _, id := range []string{"a", "b"} {
		q := stream.Query{ID: "q-" + id, SourceID: id, Delta: 0.5, Model: "linear"}
		mustRegister(t, s, q)
		mustRegister(t, ref, q)
		if _, err := ref.InstallFor(id); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := NewUDPServer(s, "127.0.0.1:0", UDPServerOptions{Engine: EngineOptions{Shards: 1, RingSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ts.Close()
		s.Engine().Close()
	})
	if n := len(ts.parsed); n >= 40 {
		t.Fatalf("the reader's batch holds %d updates; the long datagram below no longer crosses it", n)
	}
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	var dg []byte
	var updateBytes int64
	// up appends an update frame to dg; keep marks one the engine applies,
	// which the reference server applies too.
	up := func(id string, seq int, boot, keep bool) {
		t.Helper()
		u := core.Update{SourceID: id, Seq: seq, Values: []float64{1.5*float64(seq) + float64(len(id))}, Bootstrap: boot}
		start := len(dg)
		if dg, err = wire.AppendUpdateFrame(dg, &u); err != nil {
			t.Fatal(err)
		}
		updateBytes += int64(len(dg) - start)
		if keep {
			if err := ref.HandleUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	send := func(addr netip.AddrPort) {
		ts.processDatagram(dg, addr)
		ts.eng.Quiesce()
		dg = wire.AppendPreamble(nil, wire.Version, 0)
	}
	dg = wire.AppendPreamble(nil, wire.Version, 0)

	// Ahead of its bootstrap, the bootstrap, a hello, a duplicated bootstrap.
	up("a", 1, false, false)
	up("a", 0, true, true)
	if dg, err = wire.AppendHelloFrame(dg, "b"); err != nil {
		t.Fatal(err)
	}
	up("b", 0, true, true)
	up("b", 0, true, false)
	send(peer.LocalAddr().(*net.UDPAddr).AddrPort())
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, maxDatagram)
	n, err := peer.Read(buf)
	if err != nil {
		t.Fatalf("no reply to the hello: %v", err)
	}
	if _, rest, err := wire.CheckPreamble(buf[:n]); err != nil {
		t.Fatal(err)
	} else if tag, p, _, err := wire.NextFrame(rest, 0); err != nil || tag != wire.TagInstall {
		t.Fatalf("hello answered with tag %v (%v), want an install", tag, err)
	} else if inst, err := wire.DecodeInstall(p); err != nil || inst.SourceID != "b" {
		t.Fatalf("install for %q (%v), want b", inst.SourceID, err)
	}

	// 40 updates, every fifth a known stream's and the rest unknown ids:
	// unknown ids at 31 to 34 straddle the batch's cut at 32, and known
	// updates lie on both sides of it (30 and 35).
	for i := 0; i < 40; i++ {
		switch {
		case i%10 == 0:
			up("a", 2+i/5, false, true)
		case i%5 == 0:
			up("b", 2+i/5, false, true)
		default:
			up(fmt.Sprintf("x-%d", i), 0, true, false)
		}
	}
	send(netip.AddrPort{})

	// Twelve known updates: the ring takes eight and sheds the last four.
	for seq := 10; seq < 16; seq++ {
		up("a", seq, false, seq < 14)
		up("b", seq, false, seq < 14)
	}
	send(netip.AddrPort{})

	// Valid updates, then one with an unknown flag bit: the datagram is bad
	// from there on.
	up("a", 16, false, true)
	up("b", 16, false, true)
	up("a", 17, false, false)
	dg[len(dg)-9] |= 0x80 // the flags byte, before the one value
	send(netip.AddrPort{})

	// Valid updates, then a frame cut inside its header, which is never
	// counted.
	up("a", 18, false, true)
	up("b", 18, false, true)
	counted, end := updateBytes, len(dg)
	up("a", 19, false, false)
	dg, updateBytes = dg[:end+3], counted
	send(netip.AddrPort{})

	z := engineBlock(t, s)
	if z.DatagramsRx != 5 || z.DatagramsBad != 2 || z.FramesRx != 62 || z.PreBootstrap != 1 || z.UnknownSource != 32 || z.Rejected != 0 {
		t.Fatalf("engine block: rx %d, bad %d, frames %d, pre-bootstrap %d, unknown %d, rejected %d; want 5, 2, 62, 1, 32, 0",
			z.DatagramsRx, z.DatagramsBad, z.FramesRx, z.PreBootstrap, z.UnknownSource, z.Rejected)
	}
	if sh := z.PerShard[0]; len(z.PerShard) != 1 || sh.Applied != 22 || sh.Dedup != 1 || sh.Dropped != 4 || sh.RingDepthHWM != 8 {
		t.Fatalf("shard block %+v, want applied 22, dedup 1, dropped 4, ring depth hwm 8", z.PerShard)
	}
	if len(z.Lanes) != 1 {
		t.Fatalf("reader blocks %+v, want one", z.Lanes)
	}
	tag := func(name string) telemetry.Label { return telemetry.L("tag", name) }
	for _, c := range []struct {
		name  string
		label telemetry.Label
		want  int64
	}{
		{"dkf_wire_rx_frames_total", tag("update"), 61},
		{"dkf_wire_rx_bytes_total", tag("update"), updateBytes},
		{"dkf_wire_rx_frames_total", tag("hello"), 1},
		{"dkf_wire_errors_total", telemetry.L("kind", "malformed"), 1},
		{"dkf_wire_errors_total", telemetry.L("kind", "truncated"), 1},
	} {
		if got := counter(t, s, c.name, c.label); got != c.want {
			t.Errorf("%s{%s} = %d, want %d", c.name, c.label.Value, got, c.want)
		}
	}
	got, want := s.Stats(), ref.Stats()
	for i := range got {
		if got[i].Updates != 11 || got[i].Seq != 18 {
			t.Errorf("%s: %d updates to seq %d, want 11 to 18", got[i].SourceID, got[i].Updates, got[i].Seq)
		}
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want[i]) {
			t.Errorf("stats %+v, want %+v", got[i], want[i])
		}
		assertSameState(t, nodeSnapshot(t, s, got[i].SourceID), nodeSnapshot(t, ref, got[i].SourceID))
	}
}
