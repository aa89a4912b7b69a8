package dsms

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
	"streamkf/internal/wal"
)

// runQuery transmits every reading: the run tests exercise the wire and
// the log, not suppression.
var runQuery = stream.Query{ID: "q-run", SourceID: "run", Delta: 1e-9, Model: "constant"}

// rawSource handshakes a plain connection as sourceID, for writing a run
// in one piece.
func rawSource(t *testing.T, addr, sourceID string) (*wire.Writer, *wire.Reader) {
	t.Helper()
	_, w, r := rawClient(t, addr)
	if err := w.WritePreamble(wire.Version, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Hello(sourceID); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPreamble(); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := r.Next(); err != nil || tag != wire.TagInstall {
		t.Fatalf("handshake reply %v, %v", tag, err)
	}
	return w, r
}

// writeRun buffers one update frame per seq and sends them in a single
// write, so the server's read delivers them as one run. Traced, every
// update carries decision evidence under trace id seq+1.
func writeRun(t *testing.T, w *wire.Writer, sourceID string, traced bool, seqs ...int) {
	t.Helper()
	for _, seq := range seqs {
		u := core.Update{SourceID: sourceID, Seq: seq, Time: float64(seq), Values: []float64{float64(10 * seq)}, Bootstrap: seq == 0}
		var ev *trace.Event
		if traced {
			ev = &trace.Event{TraceID: int64(seq) + 1, Kind: trace.KindDecision, Dec: trace.DecisionSend, Value: u.Values[0], Residual: 10, Delta: 1e-9}
		}
		if err := w.Update(&u, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// appendFrame appends u's update frame, with ev (nil for none) as its
// evidence trailer, to b: what a source sends and a router forwards.
func appendFrame(t *testing.T, b []byte, u core.Update, ev *trace.Event) []byte {
	t.Helper()
	start := len(b)
	b, err := wire.AppendTracedUpdate(wire.BeginFrame(b, wire.TagUpdate), &u, ev)
	if err == nil {
		b, err = wire.EndFrame(b, start)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readThrough reads ack and error frames until the cumulative ack
// reaches last, returning every ack seq received before and after the
// first error frame, and that error's message.
func readThrough(t *testing.T, r *wire.Reader, last int64) (before, after []int64, errMsg string) {
	t.Helper()
	for {
		tag, p, err := r.Next()
		if err != nil {
			t.Fatalf("waiting for ack %d: %v (acks %v / %v, error %q)", last, err, before, after, errMsg)
		}
		switch tag {
		case wire.TagAck:
			seq, _ := wire.DecodeAck(p)
			if errMsg == "" {
				before = append(before, seq)
			} else {
				after = append(after, seq)
			}
			if seq >= last {
				return before, after, errMsg
			}
		case wire.TagError:
			if errMsg != "" {
				t.Fatalf("second error frame %q", string(p))
			}
			errMsg, _ = wire.DecodeError(p)
		default:
			t.Fatalf("unexpected %v frame", tag)
		}
	}
}

// loggedSeqs replays the log in dir, as a crash leaves it, and returns
// the seq of every update its run records hold, in log order.
func loggedSeqs(t *testing.T, dir string) []int {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var seqs []int
	var u core.Update
	err = l.Replay(wal.Position{}, func(tag byte, p []byte) error {
		for tag == walTagRun && len(p) > 0 {
			_, payload, rest, err := wire.NextFrame(p, 0)
			if err != nil {
				return err
			}
			if err := wire.DecodeUpdatePayload(payload, &u); err != nil {
				return err
			}
			seqs, p = append(seqs, u.Seq), rest
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

func counter(t *testing.T, s *Server, name string, labels ...telemetry.Label) int64 {
	t.Helper()
	v, ok := s.Telemetry().Get(name, labels...)
	if !ok {
		t.Fatalf("no metric %s", name)
	}
	return int64(v)
}

// TestTCPRunRefusedMidRun: one refused update in the middle of a
// buffered run. The updates before it are acked, it gets its error
// frame, the updates after it are applied and acked, and exactly the
// applied ones are in the log: a recovery from the abandoned data
// directory reproduces the state.
func TestTCPRunRefusedMidRun(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{Sync: wal.SyncAlways}
	s, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, runQuery)
	ts := startServer(t, s)
	w, r := rawSource(t, ts.Addr(), runQuery.SourceID)
	writeRun(t, w, runQuery.SourceID, false, 0)
	readThrough(t, r, 0)
	// An answer ahead of the stream moves no filter (reads do not write):
	// seq 3 is refused because it is older than the last applied seq, 6.
	if _, err := s.Answer(runQuery.ID, 5); err != nil {
		t.Fatal(err)
	}
	writeRun(t, w, runQuery.SourceID, false, 5, 6, 3, 7, 8)
	before, after, msg := readThrough(t, r, 8)
	if len(before) == 0 || before[len(before)-1] != 6 {
		t.Fatalf("acks ahead of the error frame = %v, want them to end at 6", before)
	}
	if !strings.Contains(msg, "seq 3") {
		t.Fatalf("error frame %q, want the refusal of seq 3", msg)
	}
	if len(after) == 0 {
		t.Fatal("nothing acked after the refused update")
	}
	if st := s.Stats()[0]; st.Updates != 5 || st.Seq != 8 {
		t.Fatalf("applied %d updates through seq %d, want 5 through 8", st.Updates, st.Seq)
	}
	if got := loggedSeqs(t, dir); !slices.Equal(got, []int{0, 5, 6, 7, 8}) {
		t.Fatalf("the log holds updates %v, want the bootstrap and the 4 applied updates 5 6 7 8", got)
	}

	// Crash (no Close) and recover: the log holds what was applied.
	s2, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	wantSameStats(t, s2.Stats(), s.Stats())
	wantSameTrajectory(t, trajectory(t, s2, runQuery.ID, 12), trajectory(t, s, runQuery.ID, 12))
}

// TestTCPRepeatedUpdateRefused: a raw source sends updates 0 and 1, and
// then 1 again, as a resend overlapping what was applied would. The repeat
// gets an error frame and is not folded in a second time: the server
// counts 2 updates and its filter is StateEqual to a server that applied
// 0 and 1.
func TestTCPRepeatedUpdateRefused(t *testing.T) {
	s, ref := NewServer(testCatalog()), NewServer(testCatalog())
	mustRegister(t, s, runQuery)
	mustRegister(t, ref, runQuery)
	if _, err := ref.InstallFor(runQuery.SourceID); err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, s)
	w, r := rawSource(t, ts.Addr(), runQuery.SourceID)
	writeRun(t, w, runQuery.SourceID, false, 0, 1)
	if _, _, msg := readThrough(t, r, 1); msg != "" {
		t.Fatalf("error frame %q before the repeat", msg)
	}
	writeRun(t, w, runQuery.SourceID, false, 1)
	expectErrorFrame(t, r, "seq 1 repeats")

	for seq := 0; seq < 2; seq++ {
		u := core.Update{SourceID: runQuery.SourceID, Seq: seq, Time: float64(seq), Values: []float64{float64(10 * seq)}, Bootstrap: seq == 0}
		if err := ref.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats()[0]; st.Updates != 2 || st.Seq != 1 {
		t.Fatalf("applied %d updates through seq %d, want 2 through 1", st.Updates, st.Seq)
	}
	if !sameFilter(t, s, ref, runQuery.SourceID) {
		t.Fatal("the filter differs from a server that applied 0 and 1")
	}
}

// TestTCPRunGroupCommit: under SyncAlways a buffered run costs one fsync,
// not one per update — and a traced run is still one run: each update
// carries its own evidence, so tracing costs no extra commit or ack.
func TestTCPRunGroupCommit(t *testing.T) {
	for name, traced := range map[string]bool{"untraced": false, "traced": true} {
		t.Run(name, func(t *testing.T) { testTCPRunGroupCommit(t, traced) })
	}
}

func testTCPRunGroupCommit(t *testing.T, traced bool) {
	const n = 800
	s, err := Open(testCatalog(), t.TempDir(), DurabilityOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if traced {
		s.EnableTracing(trace.Options{})
	}
	mustRegister(t, s, runQuery)
	ts := startServer(t, s)
	w, r := rawSource(t, ts.Addr(), runQuery.SourceID)
	writeRun(t, w, runQuery.SourceID, traced, 0)
	readThrough(t, r, 0)
	fsyncs := counter(t, s, "streamkf_wal_fsyncs_total")
	seqs := make([]int, n)
	for i := range seqs {
		seqs[i] = i + 1
	}
	writeRun(t, w, runQuery.SourceID, traced, seqs...)
	if _, _, msg := readThrough(t, r, n); msg != "" {
		t.Fatalf("server error: %s", msg)
	}
	if st := s.Stats()[0]; st.Updates != n+1 {
		t.Fatalf("applied %d updates, want %d", st.Updates, n+1)
	}
	got := counter(t, s, "streamkf_wal_fsyncs_total") - fsyncs
	if got < 1 || got > n/8 {
		t.Fatalf("%d pipelined updates cost %d fsyncs, want between 1 and %d", n, got, n/8)
	}
	acks := counter(t, s, "dkf_wire_tx_frames_total", telemetry.L("tag", "ack"))
	if acks > 2+n/8 {
		t.Fatalf("%d acks for %d updates", acks, n+1)
	}
	t.Logf("%d pipelined updates: %d fsyncs, %d acks", n, got, acks)
	if !traced {
		return
	}
	// Inside a run each update still found its own evidence.
	st, err := s.TraceStream(runQuery.SourceID)
	if err != nil {
		t.Fatal(err)
	}
	decisions := 0
	for _, ev := range st.Events {
		if ev.TraceID != ev.Seq+1 {
			t.Fatalf("event %+v is not under its own update's trace id", ev)
		}
		if ev.Kind == "decision" {
			decisions++
		}
	}
	if decisions < trace.DefaultRingSize/5 {
		t.Fatalf("the trail holds %d decision events of a traced run: %+v", decisions, st.Events)
	}
}

// TestDurableTCPResumeCutInsideRun cuts the server between a run's
// applies and its commit: the log rejects the commit, so the run is in
// the filter but not in the log, and the connection dies without an ack
// for any of it. Only unacked updates are lost; Reconnect resends them
// to the recovered server and the final state is bit-identical to an
// uninterrupted run.
func TestDurableTCPResumeCutInsideRun(t *testing.T) {
	const n, cutAt = 300, 150
	data := persistData(n)
	ref, _ := runReference(t, persistQuery, data)

	dir := t.TempDir()
	opts := DurabilityOptions{Sync: wal.SyncAlways}
	s1, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s1, persistQuery)
	ts1, err := NewTCPServer(s1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ts1.Serve()
	addr := ts1.Addr()
	agent, err := DialSource(addr, persistQuery.SourceID, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	for i := 0; i < cutAt; i++ {
		if _, err := agent.Offer(data[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	// From here on every commit fails, as if the process died after the
	// applies: keep offering until the refusal comes back.
	if err := s1.db.log.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for agent.Err() == nil {
		if next := agent.Stats().Readings; next < n-50 {
			agent.Offer(data[next]) // its error is the one awaited
		}
		if time.Now().After(deadline) {
			t.Fatal("the failed commit never reached the agent")
		}
	}
	if !strings.Contains(agent.Err().Error(), errNotLogged.Error()) {
		t.Fatalf("agent error %v, want the failed commit", agent.Err())
	}
	ts1.Close()
	if s1.Stats()[0].Seq <= data[cutAt-1].Seq {
		t.Fatal("nothing was applied past the cut: the test cut between runs, not inside one")
	}

	s2, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if got, want := s2.ResumeSeq(persistQuery.SourceID), int64(data[cutAt-1].Seq); got > want {
		t.Fatalf("recovered through seq %d, past the last commit at or below %d", got, want)
	}
	ts2, err := NewTCPServer(s2, addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	go ts2.Serve()
	defer ts2.Close()
	if err := agent.Reconnect(); err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	for i := agent.Stats().Readings; i < n; i++ {
		if _, err := agent.Offer(data[i]); err != nil {
			t.Fatalf("offer %d after reconnect: %v", i, err)
		}
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	wantSameStats(t, s2.Stats(), ref.Stats())
	last := data[n-1].Seq
	wantSameTrajectory(t, trajectory(t, s2, persistQuery.ID, last), trajectory(t, ref, persistQuery.ID, last))
}

// scriptedServer accepts source connections and handshakes them with a
// scripted ResumeSeq, handing the test the framed connection.
type scriptedServer struct {
	t     *testing.T
	ln    net.Listener
	feats byte // the feature bits its preamble advertises
}

func newScriptedServer(t *testing.T) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &scriptedServer{t: t, ln: ln}
}

// accept completes one handshake, replying install with resumeSeq.
func (f *scriptedServer) accept(resumeSeq int64) (net.Conn, *wire.Writer, *wire.Reader) {
	f.t.Helper()
	conn, err := f.ln.Accept()
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { conn.Close() })
	w, r := wire.NewWriter(conn, 0, 0), wire.NewReader(conn, 0, 0)
	if _, _, err := r.ReadPreamble(); err != nil {
		f.t.Fatal(err)
	}
	tag, p, err := r.Next()
	if err != nil || tag != wire.TagHello {
		f.t.Fatalf("handshake: %v, %v", tag, err)
	}
	id, _ := wire.DecodeHello(p)
	w.WritePreamble(wire.Version, f.feats)
	w.Install(wire.Install{SourceID: id, Model: "constant", Delta: 1e-9, ResumeSeq: resumeSeq})
	if err := w.Flush(); err != nil {
		f.t.Fatal(err)
	}
	return conn, w, r
}

// updates reads count update frames and returns their seqs and values.
func (f *scriptedServer) updates(r *wire.Reader, count int) (seqs []int, vals []float64) {
	f.t.Helper()
	var u core.Update
	for len(seqs) < count {
		tag, p, err := r.Next()
		if err != nil || tag != wire.TagUpdate {
			f.t.Fatalf("after %d updates: %v, %v", len(seqs), tag, err)
		}
		if err := r.DecodeUpdate(p, &u); err != nil {
			f.t.Fatal(err)
		}
		seqs, vals = append(seqs, u.Seq), append(vals, u.Values[0])
	}
	return seqs, vals
}

// TestAgentRing drives the agent's ring of unacknowledged updates from a
// scripted server: acks below the head, inside the window and past its
// tail, wrap-around of the slots with each update's values intact, and a
// Reconnect that resends exactly the unacked suffix, in order.
func TestAgentRing(t *testing.T) {
	fs := newScriptedServer(t)
	type dialed struct {
		a   *RemoteAgent
		err error
	}
	ch := make(chan dialed, 1)
	go func() {
		a, err := DialSourceOptions(fs.ln.Addr().String(), "ring", testCatalog(), DialOptions{Window: 8})
		ch <- dialed{a, err}
	}()
	conn, w, r := fs.accept(-1)
	d := <-ch
	if d.err != nil {
		t.Fatal(d.err)
	}
	agent := d.a
	defer agent.Close()

	value := func(seq int) float64 { return float64(7*seq%11) + 0.5 }
	next := 0
	offer := func(count int) {
		t.Helper()
		for ; count > 0; count-- {
			sent, err := agent.Offer(stream.Reading{Seq: next, Time: float64(next), Values: []float64{value(next)}})
			if err != nil || !sent {
				t.Fatalf("offer %d: sent %v, %v", next, sent, err)
			}
			next++
		}
	}
	// kept waits for the ring to hold want updates and returns their seqs,
	// checking each slot still carries its own values.
	kept := func(want int) []int {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			agent.mu.Lock()
			var seqs []int
			for i := 0; i < agent.ring.n; i++ {
				u := agent.ring.at(i)
				if len(u.Values) != 1 || u.Values[0] != value(u.Seq) {
					t.Errorf("slot %d holds seq %d with values %v, want %v", i, u.Seq, u.Values, value(u.Seq))
				}
				seqs = append(seqs, u.Seq)
			}
			sent := agent.sent
			agent.mu.Unlock()
			if len(seqs) == want && sent == want {
				return seqs
			}
			if time.Now().After(deadline) {
				t.Fatalf("ring holds %v (%d sent), want %d updates", seqs, sent, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// flush puts the frames the ack clock is still holding on the wire.
	flush := func() {
		agent.mu.Lock()
		agent.flushLocked()
		agent.mu.Unlock()
	}
	ack := func(seq int64) {
		t.Helper()
		w.Ack(seq)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	wantSeqs := func(got []int, from int) {
		t.Helper()
		for i, seq := range got {
			if seq != from+i {
				t.Fatalf("ring holds %v, want consecutive seqs from %d", got, from)
			}
		}
	}

	offer(5) // 0..4
	flush()
	fs.updates(r, 5)
	wantSeqs(kept(5), 0)
	ack(2) // inside: retires 0..2
	wantSeqs(kept(2), 3)
	ack(1) // below the head: retires nothing
	offer(1)
	wantSeqs(kept(3), 3)
	ack(7) // past the tail (5): retires everything
	kept(0)
	fs.updates(r, 1)
	// Wrap the slots several times with a part-full window.
	for round := 0; round < 12; round++ {
		offer(6)
		flush()
		fs.updates(r, 6)
		ack(int64(next - 4))
		wantSeqs(kept(3), next-3)
		ack(int64(next - 1))
		kept(0)
	}

	// Seven in flight, the connection dies, the recovered server holds
	// the first three: Reconnect resends the other four, in order.
	offer(7)
	flush()
	fs.updates(r, 7)
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for agent.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("transport error never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := agent.Offer(stream.Reading{Seq: next, Values: []float64{0}}); err == nil {
		t.Fatal("Offer succeeded on a failed connection")
	}
	rec := make(chan error, 1)
	go func() { rec <- agent.Reconnect() }()
	_, w, r = fs.accept(int64(next - 5))
	if err := <-rec; err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	seqs, vals := fs.updates(r, 4)
	wantSeqs(seqs, next-4)
	for i, seq := range seqs {
		if vals[i] != value(seq) {
			t.Fatalf("resent seq %d carries %v, want %v", seq, vals[i], value(seq))
		}
	}
	wantSeqs(kept(4), next-4)
	offer(1)
	ack(int64(next - 1))
	kept(0)
	// An Offer that saw the failed flag just before a concurrent Reconnect
	// cleared the error goes on with its reading; it must not drop it.
	agent.failed.Store(true)
	offer(1)
	agent.failed.Store(false)
	fs.updates(r, 2)
	ack(int64(next - 1))
	kept(0)
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestReconnectResendsUntraced: a tracing agent keeps its unacknowledged
// updates with their evidence trailers, and Reconnect resends what the
// recovered server lacks without them — the replacement server may not
// take evidence — in order, values intact.
func TestReconnectResendsUntraced(t *testing.T) {
	fs := newScriptedServer(t)
	fs.feats = wire.FeatEvidence
	type dialed struct {
		a   *RemoteAgent
		err error
	}
	ch := make(chan dialed, 1)
	go func() {
		a, err := DialSourceOptions(fs.ln.Addr().String(), "traced", testCatalog(), DialOptions{Window: 8, Trace: true})
		ch <- dialed{a, err}
	}()
	conn, _, r := fs.accept(-1)
	d := <-ch
	if d.err != nil {
		t.Fatal(d.err)
	}
	agent := d.a
	defer agent.Close()
	if !agent.TraceNegotiated() {
		t.Fatal("evidence not negotiated with a server that advertises it")
	}
	// next reads one update frame, requiring evidence on it or none.
	next := func(r *wire.Reader, seq int, evidence bool) {
		t.Helper()
		var u core.Update
		tag, p, err := r.Next()
		if err == nil {
			err = r.DecodeUpdate(p, &u)
		}
		if err != nil || tag != wire.TagUpdate || u.Seq != seq || u.Values[0] != float64(3*seq) {
			t.Fatalf("read %v seq %d values %v (%v), want seq %d", tag, u.Seq, u.Values, err, seq)
		}
		if got := wire.UpdateEvidence(p) != nil; got != evidence {
			t.Fatalf("seq %d carries evidence: %v, want %v", seq, got, evidence)
		}
	}
	for seq := 0; seq < 3; seq++ {
		if sent, err := agent.Offer(stream.Reading{Seq: seq, Time: float64(seq), Values: []float64{float64(3 * seq)}}); err != nil || !sent {
			t.Fatalf("offer %d: sent %v, %v", seq, sent, err)
		}
	}
	agent.mu.Lock()
	agent.flushLocked()
	agent.mu.Unlock()
	for seq := 0; seq < 3; seq++ {
		next(r, seq, true)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for agent.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("transport error never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	fs.feats = 0
	rec := make(chan error, 1)
	go func() { rec <- agent.Reconnect() }()
	_, _, r = fs.accept(0) // the recovered server holds seq 0
	if err := <-rec; err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	if agent.TraceNegotiated() {
		t.Fatal("evidence still negotiated with a server that does not advertise it")
	}
	next(r, 1, false)
	next(r, 2, false)
}

// at decodes the i-th oldest kept update, 0 <= i < n.
func (r *frameRing) at(i int) core.Update {
	off := 0
	for ; i > 0; i-- {
		off += len(r.frame(off))
	}
	var u core.Update
	if err := wire.DecodeUpdatePayload(r.frame(off)[5:], &u); err != nil {
		panic(err)
	}
	return u
}

// TestFrameRing pushes and pops across several wraps — frames straddling
// the end among them — two growths and pops to the head, and checks that
// the ring stays a FIFO of whole frames that carry their own values (the
// caller's update is reused between pushes, as SourceNode.Process reuses
// its own), that its spans from the head are those frames as they are
// written out, and that a warm ring allocates nothing.
func TestFrameRing(t *testing.T) {
	var r frameRing
	u := core.Update{SourceID: "s", Values: make([]float64, 2)}
	next, oldest := 0, 0
	push := func(k int) {
		for ; k > 0; k-- {
			u.Seq, u.Values[0], u.Values[1] = next, float64(next), float64(-next)
			if _, err := r.push(&u, nil); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	pop := func(k int) {
		t.Helper()
		if got := r.popThrough(int64(oldest+k-1), r.n); got != k {
			t.Fatalf("popThrough retired %d frames, want %d", got, k)
		}
		oldest += k
	}
	check := func() {
		t.Helper()
		if r.n != next-oldest {
			t.Fatalf("n = %d, want %d", r.n, next-oldest)
		}
		for i := 0; i < r.n; i++ {
			s, want := r.at(i), oldest+i
			if s.Seq != want || s.SourceID != "s" || len(s.Values) != 2 || s.Values[0] != float64(want) || s.Values[1] != float64(-want) {
				t.Fatalf("at(%d) = seq %d values %v, want seq %d", i, s.Seq, s.Values, want)
			}
		}
		var iov [2][]byte
		rd := wire.NewReader(bytes.NewReader(bytes.Join(r.spans(0, &iov), nil)), 0, 0)
		for want := oldest; want < next; want++ {
			tag, p, err := rd.Next()
			if err == nil {
				err = rd.DecodeUpdate(p, &u)
			}
			if err != nil || tag != wire.TagUpdate || u.Seq != want {
				t.Fatalf("spans hold %v seq %d (%v), want seq %d", tag, u.Seq, err, want)
			}
		}
		if _, _, err := rd.Next(); !errors.Is(err, core.ErrPeerClosed) {
			t.Fatalf("spans hold more than the kept frames: %v", err)
		}
	}
	check()
	for round := 0; round < 40; round++ { // 256 bytes, 5 frames of 26–27 in and out a round: wraps
		push(5)
		check()
		pop(3)
		check()
		pop(2)
	}
	check()
	push(40) // grows three times with the head mid-array
	check()
	pop(0)
	check()
	pop(39)
	check()
	pop(1) // to the head: empty
	check()
	if r.used != 0 {
		t.Fatalf("an empty ring keeps %d bytes", r.used)
	}
	if got := testing.AllocsPerRun(100, func() { push(30); r.popThrough(int64(next), r.n); oldest = next }); got != 0 {
		t.Fatalf("a warm ring allocates %v per 30 pushes", got)
	}
}

// TestAgentResume drives an agent's answer to a mid-stream install — a
// router resuming the stream after losing the shard behind it — from a
// scripted server. The agent drops its kept frames through the install's
// ResumeSeq, writes a hello that marks where the resend begins and resends
// the rest, in send order with their values, on the same connection: with
// nothing kept (also when the ResumeSeq is negative), with the ResumeSeq
// negative or below the oldest kept frame, between gapped seqs, at or past
// the newest, and mid-ring with a kept frame wrapped past the ring's end. An install behind an acknowledged update, or
// naming another procedure, is a sticky error.
func TestAgentResume(t *testing.T) {
	value := func(seq int) float64 { return float64(5*seq%13) + 0.25 }
	type session struct {
		agent *RemoteAgent
		w     *wire.Writer
		r     *wire.Reader
		fs    *scriptedServer
		next  int // the next reading's seq
		gap   int // between readings' seqs: 1 unless a case sets it
	}
	start := func(t *testing.T) *session {
		t.Helper()
		fs := newScriptedServer(t)
		ch := make(chan *RemoteAgent, 1)
		go func() {
			a, err := DialSourceOptions(fs.ln.Addr().String(), "resume", testCatalog(), DialOptions{Window: 8})
			if err != nil {
				t.Error(err)
			}
			ch <- a
		}()
		_, w, r := fs.accept(-1)
		a := <-ch
		if a == nil {
			t.FailNow()
		}
		t.Cleanup(func() { a.Close() })
		return &session{agent: a, w: w, r: r, fs: fs, gap: 1}
	}
	// offer sends count readings and reads their frames at the server.
	offer := func(t *testing.T, s *session, count int) {
		t.Helper()
		for k := 0; k < count; k++ {
			if sent, err := s.agent.Offer(stream.Reading{Seq: s.next, Time: float64(s.next), Values: []float64{value(s.next)}}); err != nil || !sent {
				t.Fatalf("offer %d: sent %v, %v", s.next, sent, err)
			}
			s.next += s.gap
		}
		s.agent.mu.Lock()
		s.agent.flushLocked()
		s.agent.mu.Unlock()
		s.fs.updates(s.r, count)
	}
	write := func(t *testing.T, s *session, f func(w *wire.Writer) error) {
		t.Helper()
		if err := f(s.w); err != nil {
			t.Fatal(err)
		}
		if err := s.w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ack := func(t *testing.T, s *session, seq int64) {
		t.Helper()
		write(t, s, func(w *wire.Writer) error { return w.Ack(seq) })
		deadline := time.Now().Add(5 * time.Second)
		for {
			s.agent.mu.Lock()
			done := s.agent.lastAcked >= seq
			s.agent.mu.Unlock()
			if done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("ack %d never taken", seq)
			}
			time.Sleep(time.Millisecond)
		}
	}
	inst := wire.Install{SourceID: "resume", Model: "constant", Delta: 1e-9}
	// resume writes an install carrying seq and requires the marker, then
	// the resent updates want (in that order, values intact), and nothing
	// else before the update seq s.next that a further offer sends.
	resume := func(t *testing.T, s *session, seq int64, want ...int) {
		t.Helper()
		in := inst
		in.ResumeSeq = seq
		write(t, s, func(w *wire.Writer) error { return w.Install(in) })
		tag, p, err := s.r.Next()
		if id, _ := wire.DecodeHello(p); err != nil || tag != wire.TagHello || id != "resume" {
			t.Fatalf("after the install: %v %q (%v), want the hello marker", tag, id, err)
		}
		seqs, vals := s.fs.updates(s.r, len(want))
		if !slices.Equal(seqs, want) {
			t.Fatalf("resent %v, want %v", seqs, want)
		}
		for i, seq := range seqs {
			if vals[i] != value(seq) {
				t.Fatalf("resent seq %d carries %v, want %v", seq, vals[i], value(seq))
			}
		}
		s.agent.mu.Lock()
		sent, kept := s.agent.sent, s.agent.ring.n
		s.agent.mu.Unlock()
		if sent != len(want) || kept != len(want) {
			t.Fatalf("after the resend: %d sent of %d kept, want %d", sent, kept, len(want))
		}
		offer(t, s, 1) // the next frame is the next update: nothing more was resent
		ack(t, s, int64(s.next-s.gap))
		if err := s.agent.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	seqs := func(from, to int) (s []int) {
		for seq := from; seq <= to; seq++ {
			s = append(s, seq)
		}
		return s
	}

	t.Run("empty ring", func(t *testing.T) {
		s := start(t)
		offer(t, s, 3)
		ack(t, s, 2)
		resume(t, s, 2)
	})
	t.Run("negative resume on empty ring", func(t *testing.T) {
		resume(t, start(t), -1)
	})
	t.Run("below the oldest kept", func(t *testing.T) {
		s := start(t)
		offer(t, s, 5)
		ack(t, s, 1)
		resume(t, s, 1, 2, 3, 4)
	})
	t.Run("negative resume keeps all", func(t *testing.T) {
		s := start(t)
		offer(t, s, 2)
		resume(t, s, -1, 0, 1)
	})
	t.Run("gapped seqs", func(t *testing.T) {
		s := start(t)
		s.gap = 3
		offer(t, s, 5) // 0, 3, 6, 9, 12
		resume(t, s, 7, 9, 12)
	})
	t.Run("at the newest kept", func(t *testing.T) {
		s := start(t)
		offer(t, s, 5)
		resume(t, s, 4)
	})
	t.Run("past the newest kept", func(t *testing.T) {
		s := start(t)
		offer(t, s, 5)
		resume(t, s, 9)
	})
	t.Run("mid-ring across a wrapped frame", func(t *testing.T) {
		s := start(t)
		// straddles: a kept frame past the second one runs over the end of
		// the ring's bytes.
		straddles := func() bool {
			a := s.agent
			a.mu.Lock()
			defer a.mu.Unlock()
			size, skip := len(a.ring.buf), len(a.ring.frame(0))
			skip += len(a.ring.frame(skip))
			for off := skip; off < a.ring.used; off += len(a.ring.frame(off)) {
				if at := a.ring.head + off; at < size && at+len(a.ring.frame(off)) > size {
					return true
				}
			}
			return false
		}
		for round := 0; ; round++ {
			offer(t, s, 6)
			if straddles() {
				break
			}
			if round == 20 {
				t.Fatal("no kept frame ever wrapped")
			}
			ack(t, s, int64(s.next-1))
		}
		resume(t, s, int64(s.next-5), seqs(s.next-4, s.next-1)...)
	})
	t.Run("behind an acknowledged update", func(t *testing.T) {
		s := start(t)
		offer(t, s, 5)
		ack(t, s, 3)
		in := inst
		in.ResumeSeq = 2
		write(t, s, func(w *wire.Writer) error { return w.Install(in) })
		requireStickyError(t, s.agent, "behind acknowledged seq 3")
	})
	t.Run("changed procedure", func(t *testing.T) {
		s := start(t)
		offer(t, s, 5)
		in := inst
		in.Model, in.ResumeSeq = "linear", 1
		write(t, s, func(w *wire.Writer) error { return w.Install(in) })
		requireStickyError(t, s.agent, "procedure changed")
	})
}

// requireStickyError waits for the agent's sticky error, which must name
// want, and requires an Offer to fail with it.
func requireStickyError(t *testing.T, a *RemoteAgent, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no sticky error")
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.Err(); !strings.Contains(err.Error(), want) {
		t.Fatalf("sticky error %q, want one naming %q", err, want)
	}
	if _, err := a.Offer(stream.Reading{Seq: 1 << 20, Values: []float64{0}}); err == nil {
		t.Fatal("Offer succeeded past the sticky error")
	}
}

// TestTCPRxCountedPerRun: the handler adds a run's update and forward
// frames to dkf_wire_rx_frames_total and dkf_wire_rx_bytes_total once a
// run, and the totals by tag still equal what the clients framed: around
// a refused update, for a forwarded run, and for connections that end
// inside a run — one cut off in a frame after whole ones, one whose
// malformed frame makes the server hang up before it applies the run.
func TestTCPRxCountedPerRun(t *testing.T) {
	s := NewServer(testCatalog())
	for _, id := range []string{"run", "fwd", "cut", "bad"} {
		mustRegister(t, s, stream.Query{ID: "q-" + id, SourceID: id, Delta: 1e-9, Model: "constant"})
	}
	ts := startServer(t, s)
	sent := map[wire.Tag][2]int64{} // frames, bytes
	note := func(tag wire.Tag, n int) {
		c := sent[tag]
		sent[tag] = [2]int64{c[0] + 1, c[1] + int64(n)}
	}
	dial := func(source string) (net.Conn, *wire.Writer, *wire.Reader) {
		conn, w, r := rawClient(t, ts.Addr())
		w.OnFrame = note
		feats := byte(0)
		if source == "" {
			feats = wire.FeatCluster
		}
		if err := w.WritePreamble(wire.Version, feats); err != nil {
			t.Fatal(err)
		}
		if source != "" {
			if err := w.Hello(source); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ReadPreamble(); err != nil {
			t.Fatal(err)
		}
		if source != "" {
			if tag, _, err := r.Next(); err != nil || tag != wire.TagInstall {
				t.Fatalf("handshake reply %v, %v", tag, err)
			}
			writeRun(t, w, source, false, 0)
			readThrough(t, r, 0)
		}
		return conn, w, r
	}

	// A run with a refused update.
	_, w, r := dial("run")
	writeRun(t, w, "run", false, 5, 6, 3, 7, 8)
	if _, _, msg := readThrough(t, r, 8); !strings.Contains(msg, "seq 3") {
		t.Fatalf("error frame %q, want the refusal of seq 3", msg)
	}

	// A forwarded run.
	if _, err := s.InstallFor("fwd"); err != nil {
		t.Fatal(err)
	}
	_, w, r = dial("")
	var frames []byte
	cuts := []int{0}
	for seq := 0; seq < 5; seq++ {
		frames = appendFrame(t, frames, core.Update{SourceID: "fwd", Seq: seq, Values: []float64{1}, Bootstrap: seq == 0}, nil)
		cuts = append(cuts, len(frames))
	}
	for _, run := range [][2]int{{0, 3}, {3, 4}, {4, 5}} { // a run of three, two runs of one
		if err := w.Forward(0, 1, frames[cuts[run[0]]:cuts[run[1]]]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for seq := int64(-1); seq < 4; {
		tag, p, err := r.Next()
		if err != nil || tag != wire.TagForwardAck {
			t.Fatalf("reply %v, %v; want forward acks through seq 4", tag, err)
		}
		_, seq, _ = wire.DecodeForwardAck(p)
	}

	// Whole frames, then a frame cut off by the hang-up.
	// Each waits for the server's hang-up, so the frames are read first.
	hungUp := func(r *wire.Reader) {
		for {
			if _, _, err := r.Next(); err != nil {
				return
			}
		}
	}
	conn, w, r := dial("cut")
	writeRun(t, w, "cut", false, 1, 2)
	partial, err := wire.AppendUpdateFrame(nil, &core.Update{SourceID: "cut", Seq: 3, Values: []float64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(partial[:len(partial)-3]); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	hungUp(r)

	// A malformed frame inside a run: the server hangs up with the run unapplied.
	conn, _, r = dial("bad")
	var buf []byte
	for seq := 1; seq <= 3; seq++ {
		start := len(buf)
		if seq < 3 {
			buf, err = wire.AppendUpdateFrame(buf, &core.Update{SourceID: "bad", Seq: seq, Values: []float64{1}})
		} else {
			buf, err = wire.EndFrame(append(wire.BeginFrame(buf, wire.TagUpdate), 0xff), start)
		}
		if err != nil {
			t.Fatal(err)
		}
		note(wire.TagUpdate, len(buf)-start)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	hungUp(r)

	ts.Close() // ends the two connections still open
	for deadline := time.Now().Add(5 * time.Second); counter(t, s, "dkf_wire_connections_active") != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("connections still open")
		}
	}
	for _, tag := range []wire.Tag{wire.TagHello, wire.TagUpdate, wire.TagForward} {
		l := telemetry.L("tag", tagLabels[tag])
		got := [2]int64{counter(t, s, "dkf_wire_rx_frames_total", l), counter(t, s, "dkf_wire_rx_bytes_total", l)}
		if got != sent[tag] {
			t.Errorf("%v: server counted %d frames, %d bytes; the clients framed %d, %d", tag, got[0], got[1], sent[tag][0], sent[tag][1])
		}
	}
}

// readSizes wraps a listener's connections to note, per connection in
// accept order, the largest buffer the server read into.
type readSizes struct {
	net.Listener
	mu    sync.Mutex
	conns []*sizedConn
}

type sizedConn struct {
	net.Conn
	largest atomic.Int64
}

func (c *sizedConn) Read(p []byte) (int, error) {
	if int64(len(p)) > c.largest.Load() {
		c.largest.Store(int64(len(p)))
	}
	return c.Conn.Read(p)
}

func (l *readSizes) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &sizedConn{Conn: conn}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// largest returns the largest read of the i-th accepted connection.
func (l *readSizes) largest(i int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i].largest.Load()
}

// TestTCPReadGrowsOnlyOnBursts: a dense agent with a full window fills
// the server's reads, so its connection's read buffer grows to
// wire.MaxReadBuffer, while each run the server applies stays within
// engine.BatchSize updates: one log record each. A query client and a
// window-1 source on the same server never fill a read, and keep 8 KiB.
func TestTCPReadGrowsOnlyOnBursts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testCatalog(), dir, DurabilityOptions{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, id := range []string{"dense", "sync"} {
		mustRegister(t, s, stream.Query{ID: "q-" + id, SourceID: id, Delta: 1e-9, Model: "constant"})
	}
	ts, err := NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sizes := &readSizes{Listener: ts.ln}
	ts.ln = sizes
	served := make(chan error, 1)
	go func() { served <- ts.Serve() }()
	defer func() {
		ts.Close()
		<-served
	}()

	data := gen.Ramp(40000, 0, 1.5, 0.4, 17)
	offer := func(id string, window int, n int) {
		t.Helper()
		agent, err := DialSourceOptions(ts.Addr(), id, testCatalog(), DialOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		for _, r := range data[:n] {
			if _, err := agent.Offer(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := agent.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	offer("dense", DefaultWindow, len(data))
	qc, err := DialQuery(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	for seq := 0; seq < 100; seq++ {
		if _, err := qc.Ask("q-dense", seq); err != nil {
			t.Fatal(err)
		}
	}
	offer("sync", 1, 2000)

	if got := sizes.largest(0); got <= wire.MaxReadBuffer/2 {
		t.Errorf("the dense agent's largest read was %d B, want its buffer grown to %d", got, wire.MaxReadBuffer)
	}
	for i, who := range map[int]string{1: "query client", 2: "window-1 source"} {
		if got := sizes.largest(i); got > 8<<10 {
			t.Errorf("the %s's largest read was %d B, want 8 KiB at most", who, got)
		}
	}

	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	largest := 0
	err = l.Replay(wal.Position{}, func(tag byte, p []byte) error {
		n := 0
		for ; tag == walTagRun && len(p) > 0; n++ {
			_, _, rest, err := wire.NextFrame(p, 0)
			if err != nil {
				return err
			}
			p = rest
		}
		largest = max(largest, n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if largest > engine.BatchSize || largest < engine.BatchSize/2 {
		t.Fatalf("the log's largest run holds %d updates, want up to %d, and bursts that fill most of that", largest, engine.BatchSize)
	}
}
