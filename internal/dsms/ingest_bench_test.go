package dsms

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
)

// benchUDPIngestApply is the steady-state shard apply benchmark body:
// one datagram encoded into a reused buffer, parsed, handed to the
// ring, and folded into the server filter per iteration. Shared between
// BenchmarkUDPIngest and the TestUDPIngestAllocBudget regression gate —
// the allocs/op it reports is the whole engine path, rx through apply.
func benchUDPIngestApply(b *testing.B) {
	catalog := testCatalog()
	s := NewServer(catalog)
	if err := s.Register(stream.Query{ID: "q-bench", SourceID: "bench", Delta: 1e-6, Model: "constant"}); err != nil {
		b.Fatal(err)
	}
	ts, err := NewUDPServer(s, "127.0.0.1:0", UDPServerOptions{
		Engine: EngineOptions{Shards: 1, RingSize: 4096},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ts.Close()
	eng := s.Engine()
	defer eng.Close()

	u := core.Update{SourceID: "bench", Values: []float64{0}}
	var dg []byte
	encode := func(seq int) {
		u.Seq = seq
		u.Time = float64(seq)
		u.Values[0] = float64(seq)
		u.Bootstrap = seq == 0
		dg = wire.AppendPreamble(dg[:0], wire.Version, 0)
		if dg, err = wire.AppendUpdateFrame(dg, &u); err != nil {
			b.Fatal(err)
		}
	}
	encode(0)
	ts.processDatagram(dg, netip.AddrPort{})
	eng.Quiesce()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode(i + 1)
		ts.processDatagram(dg, netip.AddrPort{})
		if i&1023 == 1023 {
			// Keep the producer loop from outrunning the shard worker
			// into ring shed — the bench measures apply, not overload.
			eng.Quiesce()
		}
	}
	eng.Quiesce()
	b.StopTimer()
	if st := eng.Stats()[0]; st.Dropped != 0 {
		b.Fatalf("ring shed %d updates during the bench", st.Dropped)
	}
}

// BenchmarkUDPIngest measures the datagram rx → shard apply path.
func BenchmarkUDPIngest(b *testing.B) {
	b.Run("apply", benchUDPIngestApply)
}

// benchIngestFanIn is the aggregate-ingest benchmark body, IDENTICAL
// for both transports (a same-body comparison requires it): b.N
// pre-encoded updates from `sources` simulated sources — plain seq
// counters, no mirror filters — round-robined through the transport-specific send, then
// drained and checked ≥99% applied. Only the setup closure differs:
//
//   - tcp: one connection, one server handler goroutine, one write
//     syscall and one coalesced-but-per-sweep ack per update — the
//     per-connection model whose per-source cost the engine removes;
//   - udp: every source multiplexed over one batching datagram socket
//     feeding the shard engine, so syscalls amortize across ~28 updates.
//
// Before the timer starts, every source is driven bootstrap + warmSeqs
// updates in, so the timed loop sees only the steady state the
// before/after comparison records: no bootstrap, a whiteness tap past its
// first kalman.WhitenessWindow innovations, and the covariance cycle
// (DESIGN §7) that a dense `constant` stream enters by step 23.
func benchIngestFanIn(b *testing.B, sources int, setup func(b *testing.B, s *Server, ids []string) (send func(src int, u *core.Update) error, pace func(sent int), drain func(want int))) {
	const warmSeqs = 16 + 8
	catalog := testCatalog()
	s := NewServer(catalog)
	ids := make([]string, sources)
	for i := range ids {
		ids[i] = fmt.Sprintf("src-%05d", i)
		if err := s.Register(stream.Query{ID: "q-" + ids[i], SourceID: ids[i], Delta: 1e-6, Model: "constant"}); err != nil {
			b.Fatal(err)
		}
	}
	send, pace, drain := setup(b, s, ids)

	u := core.Update{Values: make([]float64, 1)}
	emit := func(i int) {
		src := i % sources
		seq := i / sources
		u.SourceID = ids[src]
		u.Seq = seq
		u.Time = float64(seq)
		u.Values[0] = float64(src) + float64(seq)
		u.Bootstrap = seq == 0
		if err := send(src, &u); err != nil {
			b.Fatal(err)
		}
		if i&2047 == 2047 {
			// Flow control, amortized to nothing: a real source is
			// paced by its reading stream, but this loop can outrun the
			// server on a single CPU. TCP self-clocks (a blocked write
			// forces the handler to drain), so its pace is a no-op; the
			// fire-and-forget datagram path bounds in-flight updates so
			// the kernel socket buffer never overflows into loss.
			pace(i + 1)
		}
	}
	warm := warmSeqs * sources
	for i := 0; i < warm; i++ {
		emit(i)
	}
	drain(warm)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(warm + i)
	}
	drain(warm + b.N)
	b.StopTimer()

	applied := 0
	for _, st := range s.Stats() {
		applied += st.Updates
	}
	if total := warm + b.N; applied < total*99/100 {
		_, losses := engineApplied(s)
		b.Fatalf("only %d/%d updates applied (<99%%): %s", applied, total, losses)
	}
}

// tcpSimSource is one simulated source on the per-connection transport:
// a raw handshaken connection whose acks a background goroutine drains,
// leaving exactly the per-update costs in the measured loop.
type tcpSimSource struct {
	conn net.Conn
	w    *wire.Writer
}

func dialSimTCP(b *testing.B, addr, id string) *tcpSimSource {
	b.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	w := wire.NewWriter(conn, 256, 0)
	r := wire.NewReader(conn, 0, 0)
	if err := w.WritePreamble(wire.Version, 0); err != nil {
		b.Fatal(err)
	}
	if err := w.Hello(id); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if _, _, err := r.ReadPreamble(); err != nil {
		b.Fatal(err)
	}
	tag, _, err := r.Next()
	if err != nil || tag != wire.TagInstall {
		b.Fatalf("handshake reply %v, %v", tag, err)
	}
	go func() {
		for {
			if _, _, err := r.Next(); err != nil {
				return
			}
		}
	}()
	return &tcpSimSource{conn: conn, w: w}
}

func setupFanInTCP(b *testing.B, s *Server, ids []string) (func(int, *core.Update) error, func(int), func(int)) {
	ts, err := NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ts.Serve()
	b.Cleanup(func() { ts.Close() })
	srcs := make([]*tcpSimSource, len(ids))
	for i, id := range ids {
		srcs[i] = dialSimTCP(b, ts.Addr(), id)
	}
	send := func(src int, u *core.Update) error {
		c := srcs[src]
		if err := c.w.Update(u, nil); err != nil {
			return err
		}
		// Flush per update: the suppression protocol transmits the
		// moment δ is violated, so the per-connection model pays one
		// write syscall per update (exactly what RemoteAgent does on an
		// idle pipe).
		return c.w.Flush()
	}
	// TCP applies synchronously in the handler; when every byte has
	// been read the stats are final. The reads race the producer only
	// through the kernel socket buffers, drained by waitApplied. A
	// reliable byte stream cannot lose updates, so pace only yields.
	pace := func(int) { runtime.Gosched() }
	return send, pace, func(want int) { waitApplied(b, s, want) }
}

func setupFanInUDP(b *testing.B, s *Server, ids []string) (func(int, *core.Update) error, func(int), func(int)) {
	return setupFanInUDPOpts(b, s, UDPServerOptions{Engine: EngineOptions{RingSize: 8192}}, 0)
}

// setupFanInUDPGram is the one-update-per-datagram wire shape — what a
// fleet of per-source UDPAgents produces, where the server-side receive
// syscall cannot be amortized by sender-side packing.
func setupFanInUDPGram(b *testing.B, s *Server, ids []string) (func(int, *core.Update) error, func(int), func(int)) {
	return setupFanInUDPOpts(b, s, UDPServerOptions{Engine: EngineOptions{RingSize: 32768}}, 1)
}

func setupFanInUDPOpts(b *testing.B, s *Server, sopts UDPServerOptions, flushBytes int) (func(int, *core.Update) error, func(int), func(int)) {
	us, err := NewUDPServer(s, "127.0.0.1:0", sopts)
	if err != nil {
		b.Fatal(err)
	}
	go us.Serve()
	b.Cleanup(func() {
		us.Close()
		s.Engine().Close()
	})
	batcher, err := DialUDPBatcher(us.Addr().String(), flushBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { batcher.Close() })
	send := func(src int, u *core.Update) error {
		return batcher.Send(*u)
	}
	// Datagrams are fire-and-forget: nothing back-pressures the producer
	// before the kernel receive buffer or the shard ring, and an
	// overflow of either is silent loss. pace bounds in-flight updates
	// against the engine's APPLIED count, which caps the occupancy of
	// every queue on the path at one window (~2048 updates ≈ 73
	// datagrams ≈ 88 KB on the wire) no matter how slow the shard
	// worker runs relative to the socket reader.
	pace := func(sent int) {
		// Sleep rather than Gosched-spin: on one CPU a yield loop burns
		// the scheduler lock while the reader and shard worker are trying
		// to use it; a sleep hands them the core outright.
		eng := s.Engine()
		for eng.Applied()+2048 < uint64(sent) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return send, pace, func(want int) {
		if err := batcher.Flush(); err != nil {
			b.Fatal(err)
		}
		waitApplied(b, s, want)
	}
}

// waitApplied polls until the server has applied want updates (allowing
// the fan-in ≥99% shed tolerance) or a generous deadline passes — the
// drain barrier for transports without a synchronous ack to wait on.
// With an engine attached the poll reads its alloc-free counters; the
// per-source Stats snapshot (which walks every whiteness window) is too
// heavy for a loop that runs inside the timed region.
func waitApplied(b *testing.B, s *Server, want int) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		applied := 0
		if e := s.Engine(); e != nil {
			e.Quiesce()
			applied = int(e.Applied())
		} else {
			for _, st := range s.Stats() {
				applied += st.Updates
			}
		}
		if applied >= want*99/100 {
			return
		}
		if time.Now().After(deadline) {
			min, minID := 1<<30, ""
			for _, st := range s.Stats() {
				if st.Updates < min {
					min, minID = st.Updates, st.SourceID
				}
			}
			_, losses := engineApplied(s)
			b.Fatalf("applied %d/%d updates; ingest stalled (min source %s=%d; %s)", applied, want, minID, min, losses)
		}
		// Sleep, don't spin: on one CPU sleeping is what lets the
		// server's reader and shard worker run.
		time.Sleep(200 * time.Microsecond)
	}
}

// BenchmarkIngestFanIn compares aggregate multi-source ingest
// throughput: the per-connection TCP model versus the connectionless
// batched-datagram model over the shard engine. ns/op is per applied
// update across all sources.
func BenchmarkIngestFanIn(b *testing.B) {
	for _, sources := range []int{256, 4096, 8192} {
		b.Run(fmt.Sprintf("tcp/%d", sources), func(b *testing.B) {
			benchIngestFanIn(b, sources, setupFanInTCP)
		})
		b.Run(fmt.Sprintf("udp/%d", sources), func(b *testing.B) {
			benchIngestFanIn(b, sources, setupFanInUDP)
		})
	}
	// The per-source-agent wire shape, where sender-side packing cannot
	// amortize the server's receive syscalls — the case the reader's
	// recvmmsg batching exists for.
	for _, sources := range []int{256, 4096} {
		b.Run(fmt.Sprintf("udpgram/%d", sources), func(b *testing.B) {
			benchIngestFanIn(b, sources, setupFanInUDPGram)
		})
	}
}
