package dsms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/kalman"
	"streamkf/internal/stream"
	"streamkf/internal/wal"
)

// Durability: the server's crash-recovery layer over internal/wal.
//
// Every state-mutating event is logged — query registrations and received
// updates (bootstrap included), a run of them as one record of their
// update frames — and a periodic checkpoint snapshots the full per-stream
// filter state so replay can start where the snapshot was cut. Suppressed
// readings cost nothing: they are reconstructed at replay from the same
// sequence gaps the live server counted (§3.1's update suppression is
// also a durability optimization: the update stream is the minimal
// sufficient statistic for KFs).
//
// Ordering contract (DESIGN §11). A run's updates are logged *after* they
// apply — a rejected update must never enter the log, or replay would
// apply it — under the same per-source lock, so the per-source record
// order equals the apply order, which is all replay needs; and they are
// committed as one record before the TCP layer acks any of them.
// A shard worker commits after the lock, once per drained batch: it is
// its streams' only writer and datagrams are not acked.
//
// Crash windows. Applied but not logged: none of the run was acked, and
// the source resends what the recovered server lacks. Logged but not
// acked: the install reply's ResumeSeq tells the source what to drop.
// Neither double-applies nor leaves a gap.
//
// Lock order: Server.mu → sourceState.mu → wal.Log's internal mutexes
// (always leaves); the checkpoint mutex is taken before any of them and
// never inside.

// WAL record tags. The wire protocol owns 0x01–0x0f; durability records
// start at 0x10.
const (
	walTagRegister byte = 0x10 // str queryID, str sourceID, str model, f64 delta, f64 F
	walTagUpdate   byte = 0x11 // one wire v3 update payload; replayed, never written (logs of older servers)
	walTagAdvance  byte = 0x12 // str sourceID, i64 seq; replayed, never written (logs of older servers)
	walTagRunV3    byte = 0x13 // wire v3 update frames, back to back; replayed, never written (logs of older servers)
	walTagRun      byte = 0x14 // wire update frames (wire.AppendUpdateFrame layout), back to back
)

// DurabilityOptions configures Open.
type DurabilityOptions struct {
	// Sync is the WAL fsync policy (wal.SyncAlways zero value).
	Sync wal.SyncPolicy
	// SyncEvery is the wal.SyncInterval flush period; <= 0 picks the
	// wal default.
	SyncEvery time.Duration
	// SegmentBytes is the WAL segment rotation threshold; <= 0 picks
	// the wal default.
	SegmentBytes int64
	// CheckpointEvery writes a checkpoint after this many logged
	// updates. <= 0 disables automatic checkpoints (Checkpoint can
	// still be called explicitly, and Close writes a final one).
	CheckpointEvery int
}

// durability is the server's persistence state; nil on a non-durable
// server.
type durability struct {
	log  *wal.Log
	dir  string
	ins  *wal.Instruments
	opts DurabilityOptions

	// replaying suppresses the append hooks while recovery feeds
	// historical records back through the normal apply paths. Set only
	// during Open, before the server is shared.
	replaying bool

	sinceCkpt atomic.Int64 // updates logged since the last checkpoint
	lastCkpt  atomic.Int64 // wall-clock UnixNano of the last checkpoint (0 before any)
	ckptMu    sync.Mutex   // serializes checkpoints without blocking ingest

	// The checkpointer goroutine runs the automatic checkpoints, so no
	// ingest goroutine stops for one. ckptDue (capacity 1) wakes it, Close
	// stops it; all nil when CheckpointEvery disables the automatism.
	ckptDue, ckptStop, ckptDone chan struct{}
}

// Open builds a durable server over dataDir: it opens (creating if
// empty) the write-ahead log, restores the latest checkpoint, replays
// the log records from the position it was cut at, and returns a server
// whose filters and counters are bit-identical to the process that
// wrote them. A torn final record — a crash mid-append — is truncated
// away; corruption anywhere else fails recovery loudly.
func Open(catalog *Catalog, dataDir string, opts DurabilityOptions) (*Server, error) {
	s := NewServer(catalog)
	ins := wal.NewInstruments(s.tel.reg)
	log, err := wal.Open(dataDir, wal.Options{
		SegmentBytes: opts.SegmentBytes,
		Sync:         opts.Sync,
		SyncEvery:    opts.SyncEvery,
		Ins:          ins,
	})
	if err != nil {
		return nil, fmt.Errorf("dsms: opening wal: %w", err)
	}
	s.db = &durability{log: log, dir: dataDir, ins: ins, opts: opts, replaying: true}

	fail := func(err error) (*Server, error) {
		log.Close()
		return nil, err
	}
	start := time.Now()
	payload, err := wal.ReadCheckpoint(dataDir)
	if err != nil {
		return fail(fmt.Errorf("dsms: reading checkpoint: %w", err))
	}
	var from wal.Position // without a checkpoint, or in one of older servers: replay it all
	if payload != nil {
		if from, err = s.restoreCheckpoint(payload); err != nil {
			return fail(fmt.Errorf("dsms: restoring checkpoint: %w", err))
		}
		// Seed the checkpoint age from the file's mtime so a freshly
		// restarted server reports how stale its recovery point is, not
		// "never checkpointed".
		if fi, err := os.Stat(filepath.Join(dataDir, wal.CheckpointName)); err == nil {
			s.db.lastCkpt.Store(fi.ModTime().UnixNano())
		}
	}
	var u core.Update
	var replayed int64
	err = log.Replay(from, func(tag byte, p []byte) error {
		replayed++
		return s.replayRecord(tag, p, &u)
	})
	if err != nil {
		return fail(fmt.Errorf("dsms: replaying wal: %w", err))
	}
	s.db.replaying = false
	ins.ObserveRecovery(time.Since(start), replayed)
	if opts.CheckpointEvery > 0 {
		s.db.ckptDue, s.db.ckptStop, s.db.ckptDone = make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
		go s.checkpointer()
	}
	return s, nil
}

// ResumeSeq returns the last update sequence folded into sourceID's
// filter, or -1 when the source has no bootstrapped filter. The TCP
// handshake sends it so a reconnecting source with live mirror state
// resumes — resending only unacknowledged updates past it — instead of
// re-bootstrapping.
func (s *Server) ResumeSeq(sourceID string) int64 {
	st := s.source(sourceID)
	if st == nil {
		return -1
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.node.Bootstrapped() {
		return -1
	}
	return int64(st.lastSeq)
}

// Close releases the server's durable resources: it writes a final
// checkpoint (so the next Open replays almost nothing) and closes the
// log, making everything appended so far durable regardless of the
// fsync policy. A non-durable server's Close is a no-op.
func (s *Server) Close() error {
	// Stop the self-monitor's ticker first so no snapshot races the
	// teardown below; harmless when none is attached.
	if m := s.SelfMon(); m != nil {
		m.Close()
	}
	if s.db == nil {
		return nil
	}
	if s.db.ckptStop != nil {
		close(s.db.ckptStop)
		<-s.db.ckptDone
		s.db.ckptStop = nil
	}
	ckptErr := s.Checkpoint()
	closeErr := s.db.log.Close()
	if ckptErr != nil {
		return ckptErr
	}
	return closeErr
}

// appendRegister logs one accepted registration. Caller holds s.mu.
func (db *durability) appendRegister(q stream.Query) error {
	if db == nil || db.replaying {
		return nil
	}
	buf := make([]byte, 0, 64+len(q.ID)+len(q.SourceID)+len(q.Model))
	var err error
	for _, str := range [...]string{q.ID, q.SourceID, q.Model} {
		if buf, err = wire.AppendString(buf, str); err != nil {
			return err
		}
	}
	buf = wire.AppendF64(buf, q.Delta)
	buf = wire.AppendF64(buf, q.F)
	return db.log.Append(walTagRegister, buf)
}

// runLog is a group-commit buffer, a stream's or a shard worker's:
// applied updates' frames wait in it, under the stream's lock, to be
// committed as one run record.
type runLog struct {
	frames  []byte
	updates int
}

// runLogs lends a synchronous caller the buffer its run's records wait in
// between the apply and the commit, both under the stream's lock.
var runLogs = sync.Pool{New: func() any { return new(runLog) }}

// add appends one applied update's frame to the run record: the frame
// received, verbatim, or u encoded anew when it came without one (nil
// frame). A record that would outgrow wal.MaxRecord is committed before
// it. Returns the frame's size.
func (db *durability) add(wl *runLog, frame []byte, u *core.Update) (int, error) {
	start := len(wl.frames)
	var err error
	if wl.frames = append(wl.frames, frame...); frame == nil {
		wl.frames, err = wire.AppendUpdateFrame(wl.frames, u)
	}
	if err != nil {
		wl.frames = wl.frames[:start]
		return 0, err
	}
	size := len(wl.frames) - start
	if len(wl.frames) >= wal.MaxRecord && start > 0 {
		frame := wl.frames[start:]
		wl.frames = wl.frames[:start]
		if err := db.commit(wl); err != nil {
			return 0, err
		}
		wl.frames = append(wl.frames, frame...) // moves down: the array is the same
	}
	wl.updates++
	return size, nil
}

// commit group-commits the buffered run — one record, one log lock and,
// under SyncAlways, one shared fsync — and empties it.
func (db *durability) commit(wl *runLog) error {
	if wl.updates == 0 {
		return nil
	}
	err := db.log.Append(walTagRun, wl.frames)
	if err == nil {
		db.sinceCkpt.Add(int64(wl.updates))
	}
	wl.frames, wl.updates = wl.frames[:0], 0
	return err
}

// shouldCheckpoint reports whether the automatic checkpoint threshold
// has been crossed.
func (db *durability) shouldCheckpoint() bool {
	return db != nil && !db.replaying && db.opts.CheckpointEvery > 0 &&
		db.sinceCkpt.Load() >= int64(db.opts.CheckpointEvery)
}

// maybeCheckpoint wakes the checkpointer if a checkpoint is due: the
// ingest path's check, once per run or drained batch. It never blocks.
func (s *Server) maybeCheckpoint() {
	if s.db != nil && s.db.shouldCheckpoint() {
		select {
		case s.db.ckptDue <- struct{}{}:
		default: // already woken
		}
	}
}

// checkpointer runs the automatic checkpoints until Close. A failed one
// is retried after the next run; Close's final one reports what persists.
func (s *Server) checkpointer() {
	defer close(s.db.ckptDone)
	for {
		select {
		case <-s.db.ckptDue:
			for s.db.shouldCheckpoint() && s.Checkpoint() == nil {
				// again if ingest made one due while it ran
			}
		case <-s.db.ckptStop:
			return
		}
	}
}

// Checkpoint snapshots the full server state into the data directory's
// checkpoint file, with the log position it was cut at, and removes the
// segments wholly before that position. Safe to call concurrently with
// ingest: streams keep flowing while the snapshot is cut, and the
// per-source sequence numbers in the snapshot make replay of any
// overlapping records idempotent.
func (s *Server) Checkpoint() error {
	if s.db == nil {
		return errors.New("dsms: server is not durable")
	}
	s.db.ckptMu.Lock()
	defer s.db.ckptMu.Unlock()
	start := time.Now()
	// What ingest logs from here on counts toward the next checkpoint.
	covered := s.db.sinceCkpt.Load()
	// Every record before from is durable, and applied before it was
	// logged: the snapshot cut after it covers them all, so recovery
	// replays from there.
	from, err := s.db.log.Mark()
	if err != nil {
		return err
	}
	payload, seqs := s.encodeCheckpoint(from)
	if err := wal.WriteCheckpoint(s.db.dir, payload); err != nil {
		return err
	}
	// The snapshot is durable: publish the per-source coverage marks
	// and drop the segments a size-triggered rotation left behind it.
	for st, seq := range seqs {
		st.mu.Lock()
		st.ckptSeq = seq
		st.mu.Unlock()
	}
	if _, err := s.db.log.RemoveSegmentsBefore(from.Seg); err != nil {
		return err
	}
	s.db.sinceCkpt.Add(-covered)
	s.db.lastCkpt.Store(time.Now().UnixNano())
	s.db.ins.ObserveCheckpoint(time.Since(start))
	return nil
}

// Checkpoint payload layout (wrapped by wal's checksummed checkpoint
// file; all integers little-endian, strings u16-length-prefixed):
//
//	u32 positionMark, u32 seg, i64 off   (the log position replay starts at)
//	u32 sources
//	per source:
//	  str sourceID
//	  u32 queries; per query: str id, str model, f64 delta, f64 F
//	  i64 lastSeq            (last transmitted update; -1 before any)
//	  i64 updates, suppressed, bytes   (counter values)
//	  u8 nodeState           (0 none, 1 installed, 3 bootstrapped)
//	  if bootstrapped: i64 k, i64 seq, i64 ticks, f64 lastNIS, u8 nisValid,
//	    u16 len(x), f64…, u32 len(p), f64…, u8 count, u16 len(sums), f64…
//
// Older servers wrote no position: their payload opens with the source
// count, which never reaches positionMark, and replays every segment. Each
// of their entries holds 33 bytes more before nodeState, the time map
// they kept (u8 anchored, i64 bootSeq, f64 bootTime, i64 lastSeq, f64
// lastTime), read and discarded. Servers that kept 16 innovations wrote a
// bootstrapped stream as nodeState 2, the window in the sums' place (u16
// innovs, per innov: u16 len, f64…, oldest first), folded in on restore.
const (
	positionMark     = 0xffffffff
	legacyTimeMapLen = 1 + 4*8
)

// encodeCheckpoint cuts a consistent-per-source snapshot of the whole
// server. The topology is pinned by the read lock; each source is
// snapshotted under its runtime lock, so every stream's filter state,
// counters and sequence numbers are mutually consistent even while
// other streams keep ingesting. Returns the payload and each source's
// covered sequence number, to publish once the checkpoint is durable.
func (s *Server) encodeCheckpoint(from wal.Position) ([]byte, map[*sourceState]int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seqs := make(map[*sourceState]int, s.streams.n.Load())
	buf := wire.AppendU32(make([]byte, 0, 1024), positionMark)
	buf = wire.AppendI64(wire.AppendU32(buf, uint32(from.Seg)), from.Off)
	buf = wire.AppendU32(buf, 0) // the count, filled in below
	s.streams.each(func(st *sourceState) {
		st.mu.Lock()
		buf, seqs[st] = appendSourceEntry(buf, st)
		st.mu.Unlock()
	})
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(seqs)))
	return buf, seqs
}

// appendSourceEntry encodes one source's full state — queries, counters,
// filter snapshot — in the checkpoint layout above, returning the
// extended buffer and the last update seq the entry covers. It is the
// shared snapshot body for whole-server checkpoints and single-stream
// migration transfers (shard.go). Caller holds s.mu (read suffices) and
// the source's runtime lock.
func appendSourceEntry(buf []byte, st *sourceState) ([]byte, int) {
	buf, _ = wire.AppendString(buf, st.id)
	buf = wire.AppendU32(buf, uint32(st.nQueries()))
	for q := st.queries; q != nil; q = q.next {
		buf, _ = wire.AppendString(buf, q.id)
		buf, _ = wire.AppendString(buf, st.cfg.Model.Name)
		buf = wire.AppendF64(buf, q.delta)
		buf = wire.AppendF64(buf, q.f)
	}
	for _, v := range [...]int64{int64(st.lastSeq), st.updates, st.suppressed, st.bytes} {
		buf = wire.AppendI64(buf, v)
	}
	snap := st.node.Snapshot() // nil before the bootstrap
	buf = append(buf, b2u8(st.node.Installed())+2*b2u8(snap != nil))
	if snap != nil {
		buf = wire.AppendI64(buf, int64(snap.K))
		buf = wire.AppendI64(buf, int64(snap.Seq))
		buf = wire.AppendI64(buf, int64(snap.Ticks))
		buf = wire.AppendF64(buf, snap.LastNIS)
		buf = append(buf, b2u8(snap.NISValid))
		buf = appendF64s(wire.AppendU16(buf, uint16(len(snap.X))), snap.X)
		buf = appendF64s(wire.AppendU32(buf, uint32(len(snap.P))), snap.P)
		buf = append(buf, byte(snap.SumsCount))
		buf = appendF64s(wire.AppendU16(buf, uint16(len(snap.Sums))), snap.Sums)
	}
	return buf, st.lastSeq
}

func appendF64s(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = wire.AppendF64(buf, v)
	}
	return buf
}

// readF64s reads n floats, or latches c's failure and returns nil when c
// cannot hold them.
func readF64s(c *wire.Cursor, n int) []float64 {
	b := c.Take(8 * n)
	if !c.OK() {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vs
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// errBadCheckpoint wraps wal.ErrCorrupt so callers can treat a
// malformed checkpoint payload like any other on-disk corruption.
func errBadCheckpoint(what string) error {
	return fmt.Errorf("%w: checkpoint payload: %s", wal.ErrCorrupt, what)
}

// restoreCheckpoint rebuilds the server from a checkpoint payload and
// returns the log position to replay from. It routes queries back through
// Register — so the shared per-source configuration is recomputed by the
// same min-Δ rules that produced it — then restores each filter
// bit-identically from its snapshot.
func (s *Server) restoreCheckpoint(p []byte) (from wal.Position, err error) {
	c := wire.NewCursor(p)
	nSources := c.U32()
	timeMapped := nSources != positionMark
	if !timeMapped {
		from = wal.Position{Seg: int(c.U32()), Off: c.I64()}
		nSources = c.U32()
	}
	if !c.OK() {
		return from, errBadCheckpoint("truncated header")
	}
	for i := 0; i < int(nSources); i++ {
		if _, _, err := s.restoreSourceEntry(&c, timeMapped); err != nil {
			return from, err
		}
	}
	if !c.Done() {
		return from, errBadCheckpoint("trailing bytes")
	}
	return from, nil
}

// restoreSourceEntry decodes one source entry (the appendSourceEntry
// layout, with the legacy time map if timeMapped) from c and installs
// it: queries re-registered through Register so the shared min-Δ
// configuration is recomputed, the filter restored bit-identically from
// its snapshot, counters put back, and the released mark of an earlier
// migration away cleared (a migrate-back). It is the shared restore body
// for checkpoint recovery and migration installs (shard.go). The entry's
// counts are the stream's totals, so they replace the record's.
func (s *Server) restoreSourceEntry(c *wire.Cursor, timeMapped bool) (sourceID string, lastSeq int, err error) {
	sourceID = string(c.Str())
	nQueries := int(c.U32()) // 0 past the end, where the state check below fails
	m := 0                   // the stream's measurement dimension, once a query registers it
	for j := 0; j < nQueries; j++ {
		q := stream.Query{ID: string(c.Str()), SourceID: sourceID, Model: string(c.Str()), Delta: c.F64(), F: c.F64()}
		if !c.OK() {
			return "", 0, errBadCheckpoint("truncated query entry")
		}
		// An already-present query is adopted, not an error: a migration
		// target may have the sub-queries pre-registered by the router
		// (a checkpoint restore starts from an empty server).
		s.mu.Lock()
		st, _, err := s.adoptOrRegisterLocked(q)
		if err == nil {
			m = st.cfg.Model.MeasDim
		}
		s.mu.Unlock()
		if err != nil {
			return "", 0, fmt.Errorf("dsms: re-registering %s: %w", q.ID, err)
		}
	}
	lastSeq = int(c.I64())
	updates, suppressed, bytes := c.I64(), c.I64(), c.I64()
	if timeMapped {
		c.Take(legacyTimeMapLen)
	}
	nodeState := c.U8()
	var snap *core.NodeSnapshot
	if nodeState >= 2 {
		snap = &core.NodeSnapshot{K: int(c.I64()), Seq: int(c.I64()), Ticks: int(c.I64()), LastNIS: c.F64(), NISValid: c.U8() != 0}
		snap.X = readF64s(c, int(c.U16()))
		snap.P = readF64s(c, int(c.U32()))
		if nodeState == 2 { // the innovation window, folded in oldest first
			var w kalman.InnovationSums
			snap.Sums = make([]float64, m+2)
			for k := c.U16(); k > 0; k-- {
				d := readF64s(c, int(c.U16()))
				if len(d) != m {
					return "", 0, errBadCheckpoint("bad innovation window")
				}
				w.Observe(snap.Sums, d)
			}
			snap.SumsCount = w.N
		} else {
			snap.SumsCount, snap.Sums = int(c.U8()), readF64s(c, int(c.U16()))
		}
	}
	if !c.OK() {
		return "", 0, errBadCheckpoint("truncated source state")
	}
	if nodeState >= 1 {
		if _, err := s.InstallFor(sourceID); err != nil {
			return "", 0, fmt.Errorf("dsms: reinstalling %s: %w", sourceID, err)
		}
	}
	st := s.source(sourceID)
	if st == nil {
		return "", 0, errBadCheckpoint("source entry with no queries")
	}
	st.mu.Lock()
	if snap != nil {
		if err := st.node.RestoreSnapshot(snap); err != nil {
			st.mu.Unlock()
			return "", 0, fmt.Errorf("dsms: restoring filter for %s: %w", sourceID, err)
		}
	}
	st.lastSeq = lastSeq
	st.ckptSeq = lastSeq
	st.updates, st.suppressed, st.bytes = updates, suppressed, bytes
	st.releasedAt = -1
	st.version.Add(1)
	st.mu.Unlock()
	return sourceID, lastSeq, nil
}

// replayRecord applies one WAL record during recovery. Records already
// covered by the checkpoint are skipped by sequence number; everything
// else flows through the same Register/HandleUpdate paths the live server
// used, so the recovered state is the state those calls produced the
// first time. An advance record, which only older servers wrote, moves
// the prediction as their batch advance did.
func (s *Server) replayRecord(tag byte, p []byte, u *core.Update) error {
	switch tag {
	case walTagRegister:
		c := wire.NewCursor(p)
		q := stream.Query{ID: string(c.Str()), SourceID: string(c.Str()), Model: string(c.Str()), Delta: c.F64(), F: c.F64()}
		if !c.Done() {
			return fmt.Errorf("%w: bad register record", wal.ErrCorrupt)
		}
		// Registration records are logged before the in-memory checks
		// that can still reject them (duplicate id, model conflict), so
		// a failing replay of one reproduces a failed live call: skip.
		_ = s.Register(q)
		return nil
	case walTagRun, walTagRunV3:
		decode := wire.DecodeUpdatePayload
		if tag == walTagRunV3 {
			decode = decodeV3Update
		}
		for len(p) > 0 {
			ftag, payload, rest, err := wire.NextFrame(p, wal.MaxRecord)
			if err != nil || ftag != wire.TagUpdate {
				return fmt.Errorf("%w: bad run record: %v frame, %v", wal.ErrCorrupt, ftag, err)
			}
			if err := s.replayUpdate(payload, u, decode); err != nil {
				return err
			}
			p = rest
		}
		return nil
	case walTagUpdate:
		return s.replayUpdate(p, u, decodeV3Update)
	case walTagAdvance:
		c := wire.NewCursor(p)
		sourceID := string(c.Str())
		seq := int(c.I64())
		if !c.Done() {
			return fmt.Errorf("%w: bad advance record", wal.ErrCorrupt)
		}
		st := s.source(sourceID)
		if st == nil {
			return fmt.Errorf("%w: advance record for unregistered source %s", wal.ErrCorrupt, sourceID)
		}
		st.mu.Lock()
		st.node.AdvanceTo(seq) // a no-op before the bootstrap
		st.version.Add(1)
		st.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("%w: unknown record tag 0x%02x", wal.ErrCorrupt, tag)
	}
}

// replayUpdate applies one logged update payload, decoded by decode,
// unless the checkpoint covers it.
func (s *Server) replayUpdate(p []byte, u *core.Update, decode func([]byte, *core.Update) error) error {
	if err := decode(p, u); err != nil {
		return fmt.Errorf("%w: bad update record: %v", wal.ErrCorrupt, err)
	}
	st := s.source(u.SourceID)
	if st == nil {
		return fmt.Errorf("%w: update record for unregistered source %s", wal.ErrCorrupt, u.SourceID)
	}
	st.mu.Lock()
	covered := u.Seq <= st.ckptSeq
	st.mu.Unlock()
	if covered {
		return nil
	}
	if _, err := s.InstallFor(u.SourceID); err != nil { // a no-op past the stream's first record
		return fmt.Errorf("dsms: replay install for %s: %w", u.SourceID, err)
	}
	if err := s.HandleUpdate(*u); err != nil {
		return fmt.Errorf("dsms: replaying update %s/%d: %w", u.SourceID, u.Seq, err)
	}
	return nil
}

// decodeV3Update parses a wire v3 update payload, the layout the logs of
// older servers hold in records 0x11 and 0x13: str id | i64 seq | f64 time
// | u8 flags | u16 n | n f64 values [| evidence trailer, behind flag 0x02].
// Replay is its only reader.
func decodeV3Update(p []byte, u *core.Update) error {
	c := wire.NewCursor(p)
	id, seq, _, flags, n := c.Str(), c.I64(), c.F64(), c.U8(), int(c.U16())
	vals := c.Take(8 * n)
	if flags&0x02 != 0 {
		c.Take(len(wire.Evidence{}))
	}
	if !c.Done() {
		return errors.New("bad v3 update payload")
	}
	*u = core.Update{SourceID: string(id), Seq: int(seq), Bootstrap: flags&0x01 != 0, Values: u.Values[:0]}
	for i := 0; i < n; i++ {
		u.Values = append(u.Values, math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:])))
	}
	return nil
}
