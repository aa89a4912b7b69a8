package cluster

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/gen"
	"streamkf/internal/netsim"
	"streamkf/internal/stream"
	"streamkf/internal/wal"
)

// TestClusterShardCrashRecovery kills a durable shard mid-ingest,
// restarts it from its WAL on the same address, resynchronises it
// through the router (replaying the unacked forward window from the
// shard's recovered ResumeSeq), finishes the workload, and requires
// the merged cross-shard aggregate to match a single server that never
// crashed — bit for bit. The workload interleave is scheduled through
// netsim.Link so the source ordering (including bursts from duplicated
// slots and adjacent swaps) is deterministic and reproducible.
func TestClusterShardCrashRecovery(t *testing.T) {
	const nSources = 4
	const steps = 300
	sources := make([]string, nSources)
	data := make(map[string][]stream.Reading, nSources)
	for i := range sources {
		sources[i] = fmt.Sprintf("node-%d", i)
		data[sources[i]] = gen.Ramp(steps, float64(2+i), 1.2+0.2*float64(i), 0.9, int64(13+i))
	}
	agg := dsms.AggregateQuery{ID: "grid", SourceIDs: sources, Func: dsms.AggSum, Delta: 5, Model: "linear"}

	// Reference: a single server that never crashes.
	single := dsms.NewServer(testCatalog())
	if err := single.RegisterAggregate(agg); err != nil {
		t.Fatal(err)
	}
	ts, err := dsms.NewTCPServer(single, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ts.Serve()
	defer ts.Close()
	want := driveTCP(t, ts.Addr(), "grid", data, []int{steps - 1})

	// Cluster: shard 0 in-memory, shard 1 durable (the one we crash).
	shard0 := dsms.NewServer(testCatalog())
	addr0 := startShard(t, shard0, 0).Addr()
	dir := t.TempDir()
	openDurable := func() *dsms.Server {
		s, err := dsms.Open(testCatalog(), dir, dsms.DurabilityOptions{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatalf("open durable shard: %v", err)
		}
		return s
	}
	shard1 := openDurable()
	shard1.SetShardInfo(1, 0)
	ts1, err := dsms.NewTCPServer(shard1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ts1.Serve()
	addr1 := ts1.Addr()

	router, err := NewRouter("127.0.0.1:0", []string{addr0, addr1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve()
	defer router.Close()
	if err := router.RegisterAggregate(agg); err != nil {
		t.Fatal(err)
	}
	// The crash only matters if shard 1 owns someone.
	onCrashed := 0
	for _, id := range sources {
		if router.Ring().Owner(id) == 1 {
			onCrashed++
		}
	}
	if onCrashed == 0 || onCrashed == nSources {
		t.Fatalf("degenerate placement: %d of %d sources on the crashing shard", onCrashed, nSources)
	}

	catalog := testCatalog()
	agents := make(map[string]*dsms.RemoteAgent, nSources)
	for _, id := range sources {
		a, err := dsms.DialSource(router.Addr(), id, catalog)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents[id] = a
	}

	// Deterministic interleave: every slot in the schedule advances one
	// source by one reading; duplicated slots burst a source twice in a
	// row, swapped slots flip which source goes first. Dropped slots are
	// made up at the end so every reading is delivered exactly once.
	schedule := netsim.Link{DropEvery: 11, DupEvery: 7, SwapEvery: 5}.Schedule(nSources * steps)
	next := make(map[string]int, nSources)
	crashAt := len(schedule) / 2
	inWindow := make(map[string]int, nSources) // offers while the shard is down
	down := false

	offer := func(id string) {
		i := next[id]
		if i >= steps {
			return
		}
		// While the durable shard is down its routes get no acks; stay
		// inside the source send window so Offer never blocks.
		if down && router.Ring().Owner(id) == 1 {
			if inWindow[id] >= dsms.DefaultWindow/2 {
				return
			}
			inWindow[id]++
		}
		if _, err := agents[id].Offer(data[id][i]); err != nil {
			t.Fatalf("offer %s[%d]: %v", id, i, err)
		}
		next[id] = i + 1
	}

	for pos, slot := range schedule {
		if pos == crashAt {
			// Settle every in-flight update first: the crash drops any
			// acks still on the wire, and un-acked pre-crash updates
			// plus the bounded downtime offers below must together stay
			// inside the source send window or Offer deadlocks.
			for id, a := range agents {
				if err := a.Drain(); err != nil {
					t.Fatalf("drain %s before crash: %v", id, err)
				}
			}
			// Kill the durable shard mid-ingest: close the listener and
			// the server (final checkpoint lands in the WAL dir).
			ts1.Close()
			if err := shard1.Close(); err != nil {
				t.Fatalf("crash close: %v", err)
			}
			down = true
		}
		offer(sources[slot%nSources])
	}

	// Restart the shard from its WAL on the same address and resync.
	shard1 = openDurable()
	shard1.SetShardInfo(1, 0)
	ts1b, err := dsms.NewTCPServerOptions(shard1, addr1, dsms.ServerOptions{})
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr1, err)
	}
	go ts1b.Serve()
	defer ts1b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = router.ReconnectShard(1); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reconnect: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	down = false

	// Finish the workload (including everything the schedule dropped or
	// the downtime window deferred).
	for _, id := range sources {
		for next[id] < steps {
			offer(id)
		}
	}
	for id, a := range agents {
		if err := a.Drain(); err != nil {
			t.Fatalf("drain %s after recovery: %v", id, err)
		}
	}

	qc, err := dsms.DialQuery(router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	ans, err := qc.Ask("grid", steps-1)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, [][]float64{ans}, want, "crash recovery")
}

// durableShard is shard 1 of a two-shard test cluster: a SyncAlways
// server on a WAL directory, crashed (its listener, connections and log
// closed) and restarted from that directory on the same address.
type durableShard struct {
	t    *testing.T
	dir  string
	addr string
	s    *dsms.Server
	ts   *dsms.TCPServer
}

func startDurableShard(t *testing.T) *durableShard {
	t.Helper()
	d := &durableShard{t: t, dir: t.TempDir(), addr: "127.0.0.1:0"}
	d.start()
	t.Cleanup(d.crash)
	return d
}

func (d *durableShard) start() {
	d.t.Helper()
	s, err := dsms.Open(testCatalog(), d.dir, dsms.DurabilityOptions{Sync: wal.SyncAlways})
	if err != nil {
		d.t.Fatalf("open durable shard: %v", err)
	}
	s.SetShardInfo(1, 0)
	ts, err := dsms.NewTCPServerOptions(s, d.addr, dsms.ServerOptions{})
	if err != nil {
		s.Close()
		d.t.Fatalf("listen on %s: %v", d.addr, err)
	}
	go ts.Serve()
	d.s, d.ts, d.addr = s, ts, ts.Addr()
}

func (d *durableShard) crash() {
	if d.ts != nil {
		d.ts.Close()
		d.s.Close()
		d.ts = nil
	}
}

// TestShardReconnectRacingOffers crashes a durable shard with updates in
// flight — no drain first — while one goroutine keeps offering, through
// the downtime and through ReconnectShard. The router keeps no copy of
// what it forwards: each agent on the lost shard is sent an install
// carrying the recovered ResumeSeq and resends what the shard lacks, and
// the route drops what reaches it in between. The merged answer must
// match a server that never crashed, bit for bit. A raw source that does
// not offer wire.FeatResume is told instead, and hung up on; its hello
// on a fresh connection resyncs it from the install's ResumeSeq.
func TestShardReconnectRacingOffers(t *testing.T) {
	t.Run("resuming agents", testReconnectResumingAgents)
	t.Run("raw sources", testReconnectRawSources)
}

func testReconnectResumingAgents(t *testing.T) {
	const nSources, steps = 4, 2000
	sources := make([]string, nSources)
	data := make(map[string][]stream.Reading, nSources)
	for i := range sources {
		sources[i] = fmt.Sprintf("node-%d", i)
		data[sources[i]] = gen.Ramp(steps, float64(2+i), 1.2+0.2*float64(i), 0.9, int64(29+i))
	}
	agg := dsms.AggregateQuery{ID: "grid", SourceIDs: sources, Func: dsms.AggSum, Delta: 5, Model: "linear"}
	single := dsms.NewServer(testCatalog())
	if err := single.RegisterAggregate(agg); err != nil {
		t.Fatal(err)
	}
	want := driveTCP(t, startShard(t, single, 0).Addr(), "grid", data, []int{steps - 1})

	addr0 := startShard(t, dsms.NewServer(testCatalog()), 0).Addr()
	shard1 := startDurableShard(t)
	router, err := NewRouter("127.0.0.1:0", []string{addr0, shard1.addr}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve()
	t.Cleanup(func() { router.Close() })
	if err := router.RegisterAggregate(agg); err != nil {
		t.Fatal(err)
	}
	onCrashed := 0
	agents := make(map[string]*dsms.RemoteAgent, nSources)
	for _, id := range sources {
		if router.Ring().Owner(id) == 1 {
			onCrashed++
		}
		a, err := dsms.DialSource(router.Addr(), id, testCatalog())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		agents[id] = a
	}
	if onCrashed == 0 || onCrashed == nSources {
		t.Fatalf("degenerate placement: %d of %d sources on the crashing shard", onCrashed, nSources)
	}

	// The offering goroutine asks for the crash a quarter of the way in
	// and goes on offering; from half way it offers only once the shard is
	// down; from three quarters, only once the shard is back, racing
	// ReconnectShard; and it waits for ReconnectShard to return only
	// before the last readings.
	crashNow, down, restarted, reconnected := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	var duringReconnect, reconnecting atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < steps; i++ {
			switch i {
			case steps / 4:
				close(crashNow)
			case steps / 2:
				<-down
			case 3 * steps / 4:
				<-restarted
			case steps - 50:
				<-reconnected
			}
			for _, id := range sources {
				if _, err := agents[id].Offer(data[id][i]); err != nil {
					done <- fmt.Errorf("offer %s[%d]: %w", id, i, err)
					return
				}
				duringReconnect.Add(reconnecting.Load())
			}
		}
		done <- nil
	}()
	<-crashNow
	shard1.crash()
	close(down)
	shard1.start()
	reconnecting.Store(1)
	close(restarted)
	err = router.ReconnectShard(1)
	reconnecting.Store(0)
	close(reconnected)
	if err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t.Logf("%d offers ran while ReconnectShard did", duringReconnect.Load())
	for id, a := range agents {
		if err := a.Drain(); err != nil {
			t.Fatalf("drain %s after recovery: %v", id, err)
		}
	}
	qc, err := dsms.DialQuery(router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	ans, err := qc.Ask("grid", steps-1)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, [][]float64{ans}, want, "reconnect racing offers")
}

// rawSource is a source that speaks the wire by hand to a router.
type rawSource struct {
	t  *testing.T
	id string
	w  *wire.Writer
	rd *wire.Reader
}

// dialRaw handshakes id with the router at addr, offering feats, and
// requires the install to carry ResumeSeq wantResume.
func dialRaw(t *testing.T, addr, id string, feats byte, wantResume int64) *rawSource {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) // a read that hangs fails
	s := &rawSource{t: t, id: id, w: wire.NewWriter(conn, 0, 0), rd: wire.NewReader(conn, 0, 0)}
	s.w.WritePreamble(wire.Version, feats)
	s.w.Hello(id)
	s.flush()
	if _, _, err := s.rd.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	s.install(wantResume)
	return s
}

func (s *rawSource) flush() {
	s.t.Helper()
	if err := s.w.Flush(); err != nil {
		s.t.Fatal(err)
	}
}

// send writes the updates from..to, each carrying its seq as its value.
func (s *rawSource) send(from, to int) {
	s.t.Helper()
	for seq := from; seq <= to; seq++ {
		u := core.Update{SourceID: s.id, Seq: seq, Time: float64(seq), Values: []float64{float64(seq)}, Bootstrap: seq == 0}
		if err := s.w.Update(&u, nil); err != nil {
			s.t.Fatal(err)
		}
	}
	s.flush()
}

// read requires the next frame to be a want and returns its payload.
func (s *rawSource) read(want wire.Tag) []byte {
	s.t.Helper()
	tag, p, err := s.rd.Next()
	if err != nil || tag != want {
		msg, _ := wire.DecodeError(p)
		s.t.Fatalf("read %v %q (%v), want %v", tag, msg, err, want)
	}
	return p
}

// sync returns once the router has read everything sent before: it
// answers a query for no query itself, after the frames ahead of it.
func (s *rawSource) sync() {
	s.t.Helper()
	s.w.Query("no-such-query", 0)
	s.flush()
	s.read(wire.TagError)
}

func (s *rawSource) install(wantResume int64) {
	s.t.Helper()
	if inst, err := wire.DecodeInstall(s.read(wire.TagInstall)); err != nil || inst.ResumeSeq != wantResume {
		s.t.Fatalf("install %+v, %v; want ResumeSeq %d", inst, err, wantResume)
	}
}

func (s *rawSource) ackedThrough(seq int64) {
	s.t.Helper()
	for {
		if got, _ := wire.DecodeAck(s.read(wire.TagAck)); got == seq {
			return
		}
	}
}

// heldShard fronts shard 1 for the router: each connection through it
// carries the shard's preamble at once, but while hold is set when it is
// made, the rest of what the shard sends waits until release is closed;
// held is closed once the router has written past its preamble.
type heldShard struct {
	addr          string
	hold          atomic.Bool
	held, release chan struct{}
}

func holdShard(t *testing.T, shardAddr string) *heldShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	h := &heldShard{addr: ln.Addr().String(), held: make(chan struct{}), release: make(chan struct{})}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", shardAddr)
			if err != nil {
				c.Close()
				continue
			}
			hold := h.hold.Load()
			go func() {
				defer func() { c.Close(); s.Close() }()
				buf := make([]byte, 64<<10)
				for total := 0; ; {
					n, err := c.Read(buf)
					if _, werr := s.Write(buf[:n]); err != nil || werr != nil {
						return
					}
					if total += n; hold && total > 6 && total-n <= 6 {
						close(h.held)
					}
				}
			}()
			go func() {
				defer func() { c.Close(); s.Close() }()
				pre := make([]byte, 6)
				if _, err := io.ReadFull(s, pre); err == nil {
					c.Write(pre)
					if hold {
						<-h.release
					}
					io.Copy(c, s)
				}
			}()
		}
	}()
	return h
}

// testReconnectRawSources drives the fence and the marker by hand. One
// source offers wire.FeatResume. What it sends while ReconnectShard is
// under way, before the recovered shard's first reply, must not reach
// the shard; nor what it sends after the install, before its marker; the
// resend behind the marker must. One source does not offer the bit: it
// is sent an error naming its stream and hung up on, and its hello on a
// fresh connection resyncs it from the install's ResumeSeq.
func testReconnectRawSources(t *testing.T) {
	addr0 := startShard(t, dsms.NewServer(testCatalog()), 0).Addr()
	shard1 := startDurableShard(t)
	proxy := holdShard(t, shard1.addr) // the shard restarts on it
	router, err := NewRouter("127.0.0.1:0", []string{addr0, proxy.addr}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve()
	t.Cleanup(func() { router.Close() })
	var ids []string
	for k := 0; len(ids) < 2; k++ {
		if id := fmt.Sprintf("raw-%d", k); router.Ring().Owner(id) == 1 {
			ids = append(ids, id)
			if err := router.RegisterQuery(stream.Query{ID: "q-" + id, SourceID: id, Delta: 1e-9, Model: "constant"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	resuming := dialRaw(t, router.Addr(), ids[0], wire.FeatResume, -1)
	plain := dialRaw(t, router.Addr(), ids[1], 0, -1)
	for _, s := range []*rawSource{resuming, plain} {
		s.send(0, 9)
		s.ackedThrough(9)
	}
	shard1.crash()
	for _, s := range []*rawSource{resuming, plain} {
		s.send(10, 14)
		s.sync()
	}
	shard1.start()
	proxy.hold.Store(true)
	reconnected := make(chan error, 1)
	go func() { reconnected <- router.ReconnectShard(1) }()
	<-proxy.held // redialled, and re-registering: the shard's reply waits
	resuming.send(15, 15)
	resuming.sync()
	close(proxy.release)
	if err := <-reconnected; err != nil {
		t.Fatalf("reconnect: %v", err)
	}

	resuming.install(9)
	resuming.send(16, 16) // ahead of the marker: dropped
	resuming.sync()
	resuming.w.Hello(resuming.id)
	resuming.send(10, 16)
	resuming.ackedThrough(16)

	if msg, _ := wire.DecodeError(plain.read(wire.TagError)); !strings.Contains(msg, plain.id) {
		t.Fatalf("error frame %q does not name the stream %s", msg, plain.id)
	}
	if tag, _, err := plain.rd.Next(); err == nil {
		t.Fatalf("connection still open after the error: read %v", tag)
	}
	plain = dialRaw(t, router.Addr(), plain.id, 0, 9)
	plain.send(10, 14)
	plain.ackedThrough(14)

	want := map[string]int{resuming.id: 16, plain.id: 14}
	for _, st := range shard1.s.Stats() {
		if last, ok := want[st.SourceID]; ok && (st.Updates != last+1 || st.Seq != last) {
			t.Fatalf("shard holds %d updates of %s through seq %d, want %d through %d", st.Updates, st.SourceID, st.Seq, last+1, last)
		}
	}
}
