package dsms

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
	"streamkf/internal/wal"
)

// The recovery invariant under test: a server recovered from checkpoint
// + WAL replay (torn tail included) answers every query bit-identically
// to a server that never died — same filter trajectory, same
// suppression accounting — and a reconnecting source resumes without
// re-bootstrapping.

// persistQuery is the query used throughout; a moderate delta so the
// stream both suppresses and transmits.
var persistQuery = stream.Query{ID: "q-dur", SourceID: "src", Delta: 2.5, Model: "linear"}

// chattyQuery has a tight precision bound so most readings transmit —
// used where the test needs real WAL volume (checkpoint cadence,
// segment rotation).
var chattyQuery = stream.Query{ID: "q-chat", SourceID: "src", Delta: 0.2, Model: "linear"}

func persistData(n int) []stream.Reading {
	return gen.Ramp(n, 0, 1.5, 0.4, 17)
}

// trajectory queries q at every seq in [0, last], returning the raw
// float bits so comparison is exact, not within-epsilon.
func trajectory(t *testing.T, s *Server, queryID string, last int) [][]uint64 {
	t.Helper()
	out := make([][]uint64, 0, last+1)
	for seq := 0; seq <= last; seq++ {
		vals, err := s.Answer(queryID, seq)
		if err != nil {
			t.Fatalf("Answer(%s, %d): %v", queryID, seq, err)
		}
		bits := make([]uint64, len(vals))
		for i, v := range vals {
			bits[i] = math.Float64bits(v)
		}
		out = append(out, bits)
	}
	return out
}

func wantSameTrajectory(t *testing.T, got, want [][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trajectory has %d answers, want %d", len(got), len(want))
	}
	for seq := range want {
		if len(got[seq]) != len(want[seq]) {
			t.Fatalf("answer at seq %d has %d values, want %d", seq, len(got[seq]), len(want[seq]))
		}
		for i := range want[seq] {
			if got[seq][i] != want[seq][i] {
				t.Fatalf("answer at seq %d differs: %x vs %x (not bit-identical)",
					seq, got[seq], want[seq])
			}
		}
	}
}

func wantSameStats(t *testing.T, got, want []Stats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stats for %d sources, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.SourceID != w.SourceID || g.Updates != w.Updates || g.Suppressed != w.Suppressed ||
			g.Bytes != w.Bytes || g.Seq != w.Seq || math.Float64bits(g.NIS) != math.Float64bits(w.NIS) {
			t.Fatalf("stats diverged:\n got %+v\nwant %+v", g, w)
		}
	}
}

// nodeBits returns the bit patterns of the source's filter state vector
// and covariance, for exact x/P comparison.
func nodeBits(t *testing.T, s *Server, sourceID string) (x, p []uint64, seq int) {
	t.Helper()
	st := s.source(sourceID)
	if st == nil {
		t.Fatalf("no source %s", sourceID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := st.node.Snapshot()
	if snap == nil {
		t.Fatalf("source %s has no bootstrapped filter", sourceID)
	}
	x = make([]uint64, len(snap.X))
	for i, v := range snap.X {
		x[i] = math.Float64bits(v)
	}
	p = make([]uint64, len(snap.P))
	for i, v := range snap.P {
		p[i] = math.Float64bits(v)
	}
	return x, p, snap.Seq
}

// runReference streams data into a fresh non-durable server, mirroring
// the exact call sequence of the durable runs, and returns the server
// plus the transcript of transmitted updates.
func runReference(t *testing.T, q stream.Query, data []stream.Reading) (*Server, []core.Update) {
	t.Helper()
	s := NewServer(testCatalog())
	mustRegister(t, s, q)
	cfg, err := s.InstallFor(q.SourceID)
	if err != nil {
		t.Fatal(err)
	}
	var transcript []core.Update
	agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error {
		err := s.HandleUpdate(u)
		// A transport that keeps an update past Send copies its Values:
		// they are the source node's until the next reading.
		u.Values = append([]float64(nil), u.Values...)
		transcript = append(transcript, u)
		return err
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range data {
		if _, err := agent.Offer(r); err != nil {
			t.Fatal(err)
		}
	}
	return s, transcript
}

// TestDurableRecoveryEquivalence is the kill-and-recover e2e test: a
// durable server is abandoned mid-stream (no Close — the crash), a new
// server recovers from its data directory, the stream continues, and
// the final state must be bit-identical to an uninterrupted run.
func TestDurableRecoveryEquivalence(t *testing.T) {
	const n, crashAt, ckptAt = 400, 250, 200
	data := persistData(n)
	ref, _ := runReference(t, persistQuery, data)

	dir := t.TempDir()
	opts := DurabilityOptions{Sync: wal.SyncAlways, CheckpointEvery: 64}
	s1, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s1, persistQuery)
	cfg, err := s1.InstallFor(persistQuery.SourceID)
	if err != nil {
		t.Fatal(err)
	}
	// The agent outlives the server crash: readings keep flowing into
	// whichever server target currently points at, exactly like a source
	// that reconnects after its server restarts.
	target := s1
	agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error {
		return target.HandleUpdate(u)
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashAt; i++ {
		if _, err := agent.Offer(data[i]); err != nil {
			t.Fatal(err)
		}
		if i == ckptAt {
			// An explicit checkpoint mid-stream: recovery below must
			// combine checkpoint restore with tail replay.
			if err := s1.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash: no Close, no final checkpoint. SyncAlways means every
	// applied update is already on disk.

	s2, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if s2.db == nil {
		t.Fatal("recovered server is not durable")
	}
	if !s2.HasQuery(persistQuery.ID) {
		t.Fatal("recovered server lost the registered query")
	}
	if got := s2.ResumeSeq(persistQuery.SourceID); got != int64(s1.Stats()[0].Seq) {
		t.Fatalf("ResumeSeq = %d, want %d", got, s1.Stats()[0].Seq)
	}
	target = s2
	for i := crashAt; i < n; i++ {
		if _, err := agent.Offer(data[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Filter state, suppression accounting and the full answer
	// trajectory must be bit-identical to the uninterrupted server.
	refX, refP, refSeq := nodeBits(t, ref, persistQuery.SourceID)
	gotX, gotP, gotSeq := nodeBits(t, s2, persistQuery.SourceID)
	if refSeq != gotSeq {
		t.Fatalf("filter seq = %d, want %d", gotSeq, refSeq)
	}
	for i := range refX {
		if refX[i] != gotX[i] {
			t.Fatalf("x[%d] = %x, want %x (not bit-identical)", i, gotX[i], refX[i])
		}
	}
	for i := range refP {
		if refP[i] != gotP[i] {
			t.Fatalf("P[%d] = %x, want %x (not bit-identical)", i, gotP[i], refP[i])
		}
	}
	gotStats, refStats := s2.Stats(), ref.Stats()
	wantSameStats(t, gotStats, refStats)
	if !gotStats[0].Durable || refStats[0].Durable {
		t.Fatalf("Durable flags = %v/%v, want true/false", gotStats[0].Durable, refStats[0].Durable)
	}
	if gotStats[0].CheckpointSeq <= 0 {
		t.Fatalf("CheckpointSeq = %d, want > 0 after mid-stream checkpoint", gotStats[0].CheckpointSeq)
	}
	last := data[n-1].Seq + 5 // extrapolate a little past the stream too
	wantSameTrajectory(t, trajectory(t, s2, persistQuery.ID, last), trajectory(t, ref, persistQuery.ID, last))

	// A clean Close writes a final checkpoint snapshotting the live
	// in-memory state (including the query-driven extrapolation above);
	// a third open recovers from it alone and must reproduce that state
	// exactly.
	x2, p2, seq2 := nodeBits(t, s2, persistQuery.SourceID)
	preClose := s2.Stats()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	x3, p3, seq3 := nodeBits(t, s3, persistQuery.SourceID)
	if seq3 != seq2 {
		t.Fatalf("post-close filter seq = %d, want %d", seq3, seq2)
	}
	for i := range x2 {
		if x3[i] != x2[i] {
			t.Fatalf("post-close x[%d] = %x, want %x (not bit-identical)", i, x3[i], x2[i])
		}
	}
	for i := range p2 {
		if p3[i] != p2[i] {
			t.Fatalf("post-close P[%d] = %x, want %x (not bit-identical)", i, p3[i], p2[i])
		}
	}
	wantSameStats(t, s3.Stats(), preClose)
}

// TestReplayLegacyAdvanceRecord: servers that still had a batch advance
// logged advance records (tag 0x12) between a stream's updates. Nothing
// writes them now, but a log written then must recover as it did: the
// filter bit-identical to one advanced at the same point, the stale-update
// boundary the advance moved still in force, and the updates logged after
// it replayed on top. A truncated advance record is corruption.
func TestReplayLegacyAdvanceRecord(t *testing.T) {
	q, opts := chattyQuery, DurabilityOptions{Sync: wal.SyncAlways}
	_, transcript := runReference(t, q, persistData(200))
	// Advance mid-stream, strictly inside a suppressed run, so an update
	// the advance made stale exists.
	k := len(transcript) / 2
	for transcript[k].Seq-transcript[k-1].Seq < 3 {
		k++
	}
	before, after := transcript[:k], transcript[k:]
	advanceTo := before[k-1].Seq + 2
	feed := func(s *Server, ups []core.Update) {
		t.Helper()
		for _, u := range ups {
			if err := s.HandleUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	// durableUpTo writes register, update and advance records (the advance
	// encoded as the removed writer did, truncated by cut bytes) and
	// abandons the server: the crash.
	durableUpTo := func(dir string, cut int) {
		t.Helper()
		s, err := Open(testCatalog(), dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustRegister(t, s, q)
		if _, err := s.InstallFor(q.SourceID); err != nil {
			t.Fatal(err)
		}
		feed(s, before)
		rec, err := wire.AppendString(nil, q.SourceID)
		if err != nil {
			t.Fatal(err)
		}
		rec = wire.AppendI64(rec, int64(advanceTo))
		if err := s.db.log.Append(walTagAdvance, rec[:len(rec)-cut]); err != nil {
			t.Fatal(err)
		}
	}
	sameNode := func(got, want *Server) {
		t.Helper()
		gx, gp, gseq := nodeBits(t, got, q.SourceID)
		wx, wp, wseq := nodeBits(t, want, q.SourceID)
		if gseq != wseq {
			t.Fatalf("recovered filter at seq %d, want %d", gseq, wseq)
		}
		for i := range wx {
			if gx[i] != wx[i] {
				t.Fatalf("x[%d] = %x, want %x (not bit-identical)", i, gx[i], wx[i])
			}
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("P[%d] = %x, want %x (not bit-identical)", i, gp[i], wp[i])
			}
		}
	}

	ref := NewServer(testCatalog())
	mustRegister(t, ref, q)
	if _, err := ref.InstallFor(q.SourceID); err != nil {
		t.Fatal(err)
	}
	feed(ref, before)
	st := ref.source(q.SourceID)
	st.mu.Lock()
	st.node.AdvanceTo(advanceTo)
	st.mu.Unlock()

	dir := t.TempDir()
	durableUpTo(dir, 0)
	s2, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	sameNode(s2, ref)
	stale := before[k-1]
	stale.Bootstrap, stale.Seq = false, advanceTo-1
	if err := s2.HandleUpdate(stale); err == nil || !strings.Contains(err.Error(), "after prediction advanced") {
		t.Fatalf("update at seq %d behind the replayed advance to %d: err %v, want the stale refusal", stale.Seq, advanceTo, err)
	}
	// More updates, logged behind the advance record, then a second crash.
	feed(s2, after)
	feed(ref, after)
	s3, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer s3.Close()
	sameNode(s3, ref)
	wantSameStats(t, s3.Stats(), ref.Stats())

	torn := t.TempDir()
	durableUpTo(torn, 1)
	if _, err := Open(testCatalog(), torn, opts); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("a truncated advance record recovered with err %v, want wal.ErrCorrupt", err)
	}
}

// TestDurableTornTailEveryOffset cuts the WAL's last segment at every
// byte offset — every possible crash point of a partial append — and
// requires that recovery plus the source's resend of unacknowledged
// updates reconverges on the uninterrupted run, bit for bit.
func TestDurableTornTailEveryOffset(t *testing.T) {
	const n = 60
	data := persistData(n)
	ref, transcript := runReference(t, persistQuery, data)
	refStats := ref.Stats()
	last := data[n-1].Seq
	refTraj := trajectory(t, ref, persistQuery.ID, last)

	// One durable run to produce the reference segment bytes. No
	// checkpoints: the whole history lives in segment 1.
	dir := t.TempDir()
	s1, err := Open(testCatalog(), dir, DurabilityOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s1, persistQuery)
	if _, err := s1.InstallFor(persistQuery.SourceID); err != nil {
		t.Fatal(err)
	}
	for _, u := range transcript {
		if err := s1.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	wantSameStats(t, s1.Stats(), refStats)
	segPath := filepath.Join(dir, "seg-00000001.wal")
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "seg-00000001.wal"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(testCatalog(), cutDir, DurabilityOptions{Sync: wal.SyncOff})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		// Startup re-registration, exactly like dkf-server -query does:
		// skipped when the WAL already recovered it.
		if !s2.HasQuery(persistQuery.ID) {
			mustRegister(t, s2, persistQuery)
		}
		if _, err := s2.InstallFor(persistQuery.SourceID); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// The source resends everything past the server's recovered seq —
		// the pending updates a real RemoteAgent would retransmit — and
		// the stream continues to the end.
		rs := s2.ResumeSeq(persistQuery.SourceID)
		for _, u := range transcript {
			if int64(u.Seq) <= rs {
				continue
			}
			if err := s2.HandleUpdate(u); err != nil {
				t.Fatalf("cut %d: resending %d: %v", cut, u.Seq, err)
			}
		}
		wantSameStats(t, s2.Stats(), refStats)
		wantSameTrajectory(t, trajectory(t, s2, persistQuery.ID, last), refTraj)
		s2.Close()
	}
}

// TestDurableTCPResume is the wire-level half of the recovery story: a
// RemoteAgent's server dies hard mid-stream, a recovered server takes
// over the same address, and Reconnect resumes the session — resending
// only what the server lost, never re-bootstrapping — with the final
// state bit-identical to an uninterrupted run.
func TestDurableTCPResume(t *testing.T) {
	const n, crashAt = 300, 180
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
	for i := 0; i < crashAt; i++ {
		if _, err := agent.Offer(data[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Hard crash: connections die with in-flight unacked updates; the
	// server process never closes its WAL.
	ts1.Close()

	s2, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if !s2.HasQuery(persistQuery.ID) {
		t.Fatal("recovered server lost the query")
	}
	ts2, err := NewTCPServer(s2, addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	go ts2.Serve()
	defer ts2.Close()

	// The dead connection surfaces as the sticky transport error once
	// the read loop notices the peer is gone (pipelining means an Offer
	// may buffer without seeing it, so wait for it explicitly).
	deadline := time.Now().Add(5 * time.Second)
	for agent.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("transport error never surfaced after server crash")
		}
		time.Sleep(time.Millisecond)
	}
	// One Reconnect resumes the session: the install reply's ResumeSeq
	// drops recovered pending updates, the rest are resent. Updates the
	// mirror already folded in are never re-offered.
	if err := agent.Reconnect(); err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	for i := crashAt; i < n; i++ {
		if _, err := agent.Offer(data[i]); err != nil {
			t.Fatalf("offer %d after reconnect: %v", i, err)
		}
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}

	// No re-bootstrap happened and the trajectories match exactly.
	ast := agent.Stats()
	refStats, gotStats := ref.Stats(), s2.Stats()
	if ast.Updates != refStats[0].Updates {
		t.Fatalf("agent sent %d updates, reference saw %d (re-bootstrap or loss)", ast.Updates, refStats[0].Updates)
	}
	wantSameStats(t, gotStats, refStats)
	last := data[n-1].Seq
	wantSameTrajectory(t, trajectory(t, s2, persistQuery.ID, last), trajectory(t, ref, persistQuery.ID, last))
}

// TestReconnectRefusesLostState: a server that recovered to *behind*
// what it acknowledged cannot be resumed — resending pending updates
// cannot repair acknowledged-then-lost state, and the agent must say so
// rather than silently diverge.
func TestReconnectRefusesLostState(t *testing.T) {
	data := persistData(100)

	s1 := NewServer(testCatalog())
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
	for i := 0; i < 50; i++ {
		if _, err := agent.Offer(data[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// The replacement server is blank (no durable state at all): its
	// ResumeSeq of -1 is behind the agent's acked history.
	s2 := NewServer(testCatalog())
	mustRegister(t, s2, persistQuery)
	ts2, err := NewTCPServer(s2, addr)
	if err != nil {
		t.Fatal(err)
	}
	go ts2.Serve()
	defer ts2.Close()

	if err := agent.Reconnect(); err == nil {
		t.Fatal("Reconnect succeeded against a server that lost acknowledged state")
	}
}

// TestDurableOpenRejectsCorruptCheckpoint: recovery must fail loudly on
// a damaged checkpoint, not silently bootstrap fresh state.
func TestDurableOpenRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(testCatalog(), dir, DurabilityOptions{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s1, persistQuery)
	if _, err := s1.InstallFor(persistQuery.SourceID); err != nil {
		t.Fatal(err)
	}
	_, transcript := runReference(t, persistQuery, persistData(50))
	for _, u := range transcript {
		if err := s1.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil { // writes the final checkpoint
		t.Fatal(err)
	}
	path := filepath.Join(dir, wal.CheckpointName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testCatalog(), dir, DurabilityOptions{}); err == nil {
		t.Fatal("Open accepted a corrupt checkpoint")
	}
}

// TestDurableCheckpointTruncatesSegments: automatic checkpoints must
// keep the log bounded — sealed segments behind the snapshot are
// removed while the stream keeps flowing.
func TestDurableCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testCatalog(), dir, DurabilityOptions{
		Sync:            wal.SyncOff,
		SegmentBytes:    512, // rotate early and often
		CheckpointEvery: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, chattyQuery)
	if _, err := s.InstallFor(chattyQuery.SourceID); err != nil {
		t.Fatal(err)
	}
	_, transcript := runReference(t, chattyQuery, persistData(600))
	for _, u := range transcript {
		if err := s.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoints run beside the ingest, on the server's checkpointer:
	// give the last one due time to finish. Without truncation
	// ~len(transcript)*45B / 512B ≈ dozens of segments would pile up;
	// checkpoints must have removed the sealed prefix.
	var segs []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if segs, err = filepath.Glob(filepath.Join(dir, "seg-*.wal")); err != nil {
			t.Fatal(err)
		}
		if s.Stats()[0].CheckpointSeq > 0 && len(segs) <= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("CheckpointSeq = %d with %d segments on disk after %d updates with CheckpointEvery 40; checkpoints are not truncating",
				s.Stats()[0].CheckpointSeq, len(segs), len(transcript))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// And the truncated log still recovers the full state.
	ref, _ := runReference(t, chattyQuery, persistData(600))
	s2, err := Open(testCatalog(), dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantSameStats(t, s2.Stats(), ref.Stats())
	last := persistData(600)[599].Seq
	wantSameTrajectory(t, trajectory(t, s2, chattyQuery.ID, last), trajectory(t, ref, chattyQuery.ID, last))
}

// TestDurableServerInterval exercises the SyncInterval policy end to
// end: buffered appends become durable through the background flusher
// and a clean Close, and recovery agrees with the reference.
func TestDurableServerInterval(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testCatalog(), dir, DurabilityOptions{Sync: wal.SyncInterval, SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, persistQuery)
	if _, err := s.InstallFor(persistQuery.SourceID); err != nil {
		t.Fatal(err)
	}
	ref, transcript := runReference(t, persistQuery, persistData(200))
	for _, u := range transcript {
		if err := s.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(testCatalog(), dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantSameStats(t, s2.Stats(), ref.Stats())
}

// BenchmarkTCPIngestDurable is the durable twin of
// BenchmarkTCPIngest/single: same loopback wire path, but every update
// is WAL-logged under the interval fsync policy before it is
// acknowledged. The delta between the two benchmarks is the price of
// durability on the ingest hot path (budget: within 2x of the
// non-durable path).
func BenchmarkTCPIngestDurable(b *testing.B) {
	catalog := testCatalog()
	s, err := Open(catalog, b.TempDir(), DurabilityOptions{Sync: wal.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Register(stream.Query{ID: "q-bench", SourceID: "bench", Delta: 1e-6, Model: "constant"}); err != nil {
		b.Fatal(err)
	}
	ts, err := NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ts.Serve()
	defer ts.Close()
	agent, err := DialSource(ts.Addr(), "bench", catalog)
	if err != nil {
		b.Fatal(err)
	}
	defer agent.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent, err := agent.Offer(benchReading(i, 0))
		if err != nil {
			b.Fatal(err)
		}
		if !sent {
			b.Fatal("reading unexpectedly suppressed")
		}
	}
	if err := agent.Drain(); err != nil {
		b.Fatal(err)
	}
}

// TestCheckpointOffIngestGoroutine: automatic checkpoints run on the
// server's checkpointer, never on the shard worker that crossed
// CheckpointEvery. Each round holds a stream the checkpoint has to
// snapshot — the way a busy server makes a checkpoint slow — offers three
// checkpoints' worth of updates to a durable engine server, and requires
// every one of them applied, none shed, while that checkpoint is still
// waiting: were it run inline, the worker would stop draining for its
// whole length and the ring (1,024 slots) would fill.
func TestCheckpointOffIngestGoroutine(t *testing.T) {
	const every, inFlight = 500, 512
	s, err := Open(testCatalog(), t.TempDir(), DurabilityOptions{Sync: wal.SyncOff, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustRegister(t, s, runQuery)
	mustRegister(t, s, stream.Query{ID: "q-held", SourceID: "held", Delta: 1, Model: "constant"})
	eng := s.StartEngine(EngineOptions{Shards: 1})
	defer eng.Close()
	p, held, holding := eng.Producer(), s.source("held"), false
	defer func() { // a failed round must not leave Close waiting for the stream
		if holding {
			held.mu.Unlock()
		}
	}()
	await := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d of %d offers applied, %d checkpoints", what, eng.Applied(), eng.Offered(), counter(t, s, "streamkf_wal_checkpoints_total"))
			}
		}
	}
	u := core.Update{SourceID: runQuery.SourceID, Values: []float64{0}}
	for round := 0; round < 5; round++ {
		// No checkpoint is under way while the stream is taken, so the
		// next one cannot get past it.
		s.db.ckptMu.Lock()
		held.mu.Lock()
		holding = true
		s.db.ckptMu.Unlock()
		done := counter(t, s, "streamkf_wal_checkpoints_total")
		for k := 0; k < 3*every; k++ {
			await("the shard worker stopped draining", func() bool { return eng.Offered()-eng.Applied() < inFlight })
			u.Time, u.Values[0], u.Bootstrap = float64(u.Seq), float64(u.Seq), u.Seq == 0
			if !tryOffer(p, 0, &u) {
				t.Fatalf("offer %d shed", u.Seq)
			}
			p.Flush()
			u.Seq++
		}
		await("ingest did not finish beside the waiting checkpoint", func() bool { return eng.Applied() == eng.Offered() })
		if got := counter(t, s, "streamkf_wal_checkpoints_total"); got != done {
			t.Fatalf("a checkpoint completed past a held stream (%d → %d)", done, got)
		}
		held.mu.Unlock()
		holding = false
		await("the due checkpoint never ran", func() bool { return counter(t, s, "streamkf_wal_checkpoints_total") > done })
	}
	if st := eng.Stats()[0]; st.Dropped != 0 {
		t.Fatalf("shed %d of %d offers while checkpoints waited", st.Dropped, u.Seq)
	}
	if got := s.Stats(); got[1].Updates != u.Seq {
		t.Fatalf("applied %d of %d offers", got[1].Updates, u.Seq)
	}
}

// TestEngineRoundOneGroupCommit: a shard worker's round is one WAL group
// commit, however many ApplyBatch calls it takes. Two producers' updates
// for two streams wait in their own rings while the only worker is held
// inside the round that applies stallShard's update; released, that round
// commits its record, and the next applies both rings — one batch each —
// and commits them as one more.
func TestEngineRoundOneGroupCommit(t *testing.T) {
	s, err := Open(testCatalog(), t.TempDir(), DurabilityOptions{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	eng := s.StartEngine(EngineOptions{Shards: 1})
	defer eng.Close()
	ids := []string{"a", "b"}
	for _, id := range ids {
		mustRegister(t, s, stream.Query{ID: "q-" + id, SourceID: id, Delta: 1, Model: "constant"})
	}
	release := stallShard(t, s)
	before := counter(t, s, "streamkf_wal_records_appended_total")
	for _, id := range ids {
		p := eng.Producer()
		for seq := 0; seq < 3; seq++ {
			p.Offer(0, &core.Update{SourceID: id, Seq: seq, Values: []float64{float64(seq)}, Bootstrap: seq == 0})
		}
	}
	release()
	eng.Quiesce()
	if got := counter(t, s, "streamkf_wal_records_appended_total") - before; got != 2 {
		t.Fatalf("two rounds (the held one, then both producers' rings) appended %d run records, want 2", got)
	}
	for _, st := range s.Stats() {
		if st.SourceID != "stall" && st.Updates != 3 {
			t.Fatalf("%s applied %d of 3 updates", st.SourceID, st.Updates)
		}
	}
}

// wantSameFilter fails unless got's filter for sourceID holds the same x
// and P bits at the same seq as want's.
func wantSameFilter(t *testing.T, got, want *Server, sourceID string) {
	t.Helper()
	gx, gp, gseq := nodeBits(t, got, sourceID)
	wx, wp, wseq := nodeBits(t, want, sourceID)
	if gseq != wseq || !slices.Equal(gx, wx) || !slices.Equal(gp, wp) {
		t.Fatalf("filter at seq %d x %x P %x, want seq %d x %x P %x (not bit-identical)", gseq, gx, gp, wseq, wx, wp)
	}
}

// TestRecoverLegacyDataDir: testdata/legacy-datadir is what a server of
// the previous format left when it was killed (no Close) after streaming
// persistData(300) under chattyQuery with SyncAlways and one explicit
// Checkpoint halfway: a version 1 checkpoint that carries the time map,
// and one 0x11 record per update after it. It recovers to the filter,
// counters and answers of a server that never stopped.
func TestRecoverLegacyDataDir(t *testing.T) {
	dir := t.TempDir()
	names, err := filepath.Glob(filepath.Join("testdata", "legacy-datadir", "*"))
	if err != nil || len(names) != 2 {
		t.Fatalf("fixture files %v, %v", names, err)
	}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(testCatalog(), dir, DurabilityOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s.Close()
	ref, _ := runReference(t, chattyQuery, persistData(300))
	wantSameFilter(t, s, ref, chattyQuery.SourceID)
	wantSameStats(t, s.Stats(), ref.Stats())
	if got := s.ResumeSeq(chattyQuery.SourceID); got != 299 {
		t.Fatalf("ResumeSeq = %d, want 299", got)
	}
	wantSameTrajectory(t, trajectory(t, s, chattyQuery.ID, 310), trajectory(t, ref, chattyQuery.ID, 310))
}

// TestRecoverV3RunDataDir opens a copy of testdata/run-v3-datadir, which
// a server of wire v3 left unclosed: a checkpoint cut half way through
// chattyQuery's 216 updates, then run records (tag 0x13) of v3 update
// frames, every other one with an evidence trailer. Recovery replays them
// through the v3 payload decoder to the x and P bits, seq, counters and
// answer trajectory of a server that never stopped.
func TestRecoverV3RunDataDir(t *testing.T) {
	fixture := func() string {
		dir := t.TempDir()
		names, err := filepath.Glob(filepath.Join("testdata", "run-v3-datadir", "*"))
		if err != nil || len(names) != 2 {
			t.Fatalf("fixture files %v, %v", names, err)
		}
		for _, name := range names {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	log, err := wal.Open(fixture(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tags := map[byte]int{}
	if err := log.Replay(wal.Position{}, func(tag byte, _ []byte) error { tags[tag]++; return nil }); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if len(tags) != 2 || tags[walTagRegister] != 1 || tags[walTagRunV3] == 0 {
		t.Fatalf("fixture records by tag %v, want one registration and v3 run records only", tags)
	}
	s, err := Open(testCatalog(), fixture(), DurabilityOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s.Close()
	if got := counter(t, s, "streamkf_wal_recovered_records"); got == 0 {
		t.Fatal("recovery replayed no record past the checkpoint")
	}
	ref, transcript := runReference(t, chattyQuery, persistData(300))
	wantSameFilter(t, s, ref, chattyQuery.SourceID)
	wantSameStats(t, s.Stats(), ref.Stats())
	if got, want := s.ResumeSeq(chattyQuery.SourceID), int64(transcript[len(transcript)-1].Seq); got != want {
		t.Fatalf("ResumeSeq = %d, want %d", got, want)
	}
	wantSameTrajectory(t, trajectory(t, s, chattyQuery.ID, 310), trajectory(t, ref, chattyQuery.ID, 310))
}

// TestReplayFromLastCheckpoint: checkpoints cut inside one segment leave
// it in place, and recovery replays only the records logged after the
// last one's position — counted by the recovery instrument — to the
// state of a server that never stopped.
func TestReplayFromLastCheckpoint(t *testing.T) {
	const tail = 17
	dir := t.TempDir()
	opts := DurabilityOptions{Sync: wal.SyncAlways}
	s, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, chattyQuery)
	if _, err := s.InstallFor(chattyQuery.SourceID); err != nil {
		t.Fatal(err)
	}
	ref, transcript := runReference(t, chattyQuery, persistData(400))
	if len(transcript) < 3*tail+1 {
		t.Fatalf("%d updates: too few for the test", len(transcript))
	}
	last := len(transcript) - tail
	for i, u := range transcript {
		if i == tail || i == 2*tail || i == last {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal")); len(segs) != 1 {
		t.Fatalf("segments %v, want the one the checkpoints were cut inside", segs)
	}
	// Crash: no Close.
	s2, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	if got := counter(t, s2, "streamkf_wal_recovered_records"); got != tail {
		t.Fatalf("recovery replayed %d records, want the %d logged after the last checkpoint", got, tail)
	}
	wantSameFilter(t, s2, ref, chattyQuery.SourceID)
	wantSameStats(t, s2.Stats(), ref.Stats())
}

// TestRunRecordSplitsAtMaxRecord: a run whose frames would outgrow
// wal.MaxRecord — here forty updates of a stream with a 60,000-byte id —
// is committed as several run records, each cut at a frame boundary, and
// a crash recovers all of it.
func TestRunRecordSplitsAtMaxRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testCatalog(), dir, DurabilityOptions{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	q := stream.Query{ID: "q-long", SourceID: strings.Repeat("x", 60000), Delta: 1e-9, Model: "constant"}
	mustRegister(t, s, q)
	if _, err := s.InstallFor(q.SourceID); err != nil {
		t.Fatal(err)
	}
	run := make([]core.Update, 40)
	for i := range run {
		run[i] = core.Update{SourceID: q.SourceID, Seq: i, Time: float64(i), Values: []float64{float64(i % 7)}, Bootstrap: i == 0}
	}
	records := counter(t, s, "streamkf_wal_records_appended_total")
	if n, err := s.applyRun(run, nil, nil); n != len(run) || err != nil {
		t.Fatalf("applyRun = %d, %v", n, err)
	}
	// 40 frames of 60,034 bytes: 17 fit under the 1 MiB cap, so three records.
	if got := counter(t, s, "streamkf_wal_records_appended_total") - records; got != 3 {
		t.Fatalf("the run was logged as %d records, want 3", got)
	}
	if err := s.db.log.Sync(); err != nil { // SyncOff: make the crash keep it
		t.Fatal(err)
	}
	s2, err := Open(testCatalog(), dir, DurabilityOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	wantSameFilter(t, s2, s, q.SourceID)
	wantSameStats(t, s2.Stats(), s.Stats())
}
