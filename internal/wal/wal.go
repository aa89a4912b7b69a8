// Package wal implements the durable, crash-safe persistence layer of
// the DKF server: an append-only, segmented write-ahead log plus an
// atomically-replaced checkpoint file.
//
// The paper's procedure-caching architecture makes the server's cached
// artifact a live Kalman filter that must stay byte-identical to the
// source's mirror (KFs ≡ KFm). A crash therefore cannot be repaired by
// re-reading a table — the filter trajectory itself must be recovered.
// The update stream is the minimal sufficient statistic for that
// trajectory (the same insight internal/synopsis exploits in memory), so
// the log records *updates*, not readings: durability costs bytes per
// transmitted update, and suppressed readings are free (they reappear at
// replay as the same sequence gaps the live server saw).
//
// Records reuse the internal/dsms/wire encoding (u32 LE length, u8 tag,
// payload) with a trailing CRC32C, so the server's ingest path logs the
// exact payload bytes it received from the network without re-encoding,
// framed straight into the active segment's buffer, and the append hot
// path allocates nothing. Recovery = read checkpoint (if any) + replay
// remaining segments, tolerating a torn record at the tail of the last
// segment only.
//
// The log's mutex guards memory, not the disk: appenders frame, hand the
// buffer to write(2) and swap segments under it, while every fsync,
// segment creation, seal, close, readdir, unlink and directory sync runs
// outside it. A caller that needs its bytes durable waits for one fsync
// that covers their logical offset, so concurrent SyncAlways committers
// share fsyncs (group commit) and an appender never waits for the disk
// under SyncInterval or SyncOff.
//
// The log itself is payload-agnostic: record tags and their layouts
// belong to the caller (internal/dsms defines the server's).
package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncAlways returns from an append only once an fsync covering its
	// records has finished: an acknowledged update is a durable update.
	// Concurrent appenders share fsyncs. Highest latency, zero loss window.
	SyncAlways SyncPolicy = iota
	// SyncInterval buffers appends and fsyncs on a timer (Options.
	// SyncEvery): bounded loss window, near-zero append overhead.
	SyncInterval
	// SyncOff never fsyncs except at rotation, checkpoint and Close:
	// durability only at those barriers. For benchmarks and tests.
	SyncOff
)

// String names the policy as accepted by ParseSyncPolicy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
	}
}

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. <= 0 selects 64 MiB.
	SegmentBytes int64
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// SyncEvery is the SyncInterval flush period. <= 0 selects 50ms.
	SyncEvery time.Duration
	// Ins receives append/fsync/segment telemetry; nil disables.
	Ins *Instruments
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
	if o.Ins == nil {
		o.Ins = &Instruments{}
	}
	return o
}

// Log is an append-only segmented write-ahead log in one directory.
// Append, AppendBatch, Sync, Mark, Rotate and RemoveSegmentsBefore are
// safe for concurrent use; Replay is for the recovery phase before
// appending begins.
//
// Offsets. end counts the bytes appended since Open across all segments;
// durable is the prefix of it a finished fsync covers. Every wait for the
// disk is a wait for durable to pass an offset, in one sync round at a
// time (round), so a caller an earlier or in-flight round already covers
// issues no fsync of its own.
//
// Lock order: rotMu → mu and syncMu → mu; rotMu and syncMu are never held
// together. mu is held only for memory work and write(2).
type Log struct {
	dir  string
	opts Options

	// rotMu serialises rotations: creating the next segment and swapping
	// to it. The segment index changes only under rotMu and mu.
	rotMu sync.Mutex

	// syncMu serialises sync rounds and is held across their fsyncs.
	syncMu  sync.Mutex
	durable atomic.Int64
	fsync   func(*os.File) error // (*os.File).Sync; a seam for the stall tests

	mu       sync.Mutex
	f        *os.File // active segment; nil once closed
	buf      []byte   // the active segment's buffer: framed records not yet written
	seg      int      // active segment index
	size     int64    // bytes in the active segment, buffered ones included
	end      int64
	sealing  []unsealed // rotated-out segments not yet fsynced and closed
	segments int        // segment files in the directory
	scratch  []byte     // framing for a record larger than buf
	failed   error      // sticky: a write, fsync or close the log could not complete
	closed   bool

	// The syncer goroutine runs the SyncInterval ticker and seals
	// size-rotated segments; sealDue (capacity 1) wakes it, Close stops it.
	sealDue, stop, done chan struct{}
}

// unsealed is rotated-out segment idx: every byte before end is in it or
// in an earlier segment, and segment idx+1 keeps its pending name until
// it is sealed.
type unsealed struct {
	f   *os.File
	idx int
	end int64
}

var errClosed = errors.New("wal: log is closed")

// Open opens (creating if necessary) the log in dir. If segments exist,
// the tail segment is scanned and any torn final record is truncated
// away before the log accepts new appends, so a crashed process's
// partial write can never corrupt records appended after recovery.
// Call Replay before the first Append to recover state.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir: dir, opts: opts, fsync: (*os.File).Sync,
		buf:     make([]byte, 0, 1<<16),
		sealDue: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{}),
	}

	idxs, pending, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range pending { // a rotation's next segment, never published
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	if len(idxs) == 0 {
		if l.f, err = createSegment(filepath.Join(dir, segmentName(1))); err == nil {
			err = syncDir(dir)
		}
		if err != nil {
			if l.f != nil {
				l.f.Close()
			}
			return nil, err
		}
		l.seg, l.size, l.segments = 1, segmentHeaderLen, 1
	} else {
		last := idxs[len(idxs)-1]
		path := filepath.Join(dir, segmentName(last))
		validLen, err := scanSegment(path, true, segmentHeaderLen, nil)
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if validLen < segmentHeaderLen {
			// Crash between segment creation and header write: rebuild
			// the header in place.
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, err
			}
			if _, err := f.Write(segmentHeader()); err != nil {
				f.Close()
				return nil, err
			}
			validLen = segmentHeaderLen
		} else if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(validLen, 0); err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.seg, l.size, l.segments = f, last, validLen, len(idxs)
	}
	l.opts.Ins.observeSegments(l.segments)
	go l.syncer()
	return l, nil
}

// createSegment creates a segment file at path and writes and fsyncs its
// header. The caller makes the directory entry durable.
func createSegment(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(segmentHeader()); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		_ = os.Remove(path) // best effort: a file left behind holds no record
		return nil, err
	}
	return f, nil
}

// Append durably (per the sync policy) appends one record. The payload
// is framed into the segment buffer, so the caller may reuse it
// immediately. Steady-state appends allocate nothing.
func (l *Log) Append(tag byte, payload []byte) error {
	return l.AppendBatch(tag, [][]byte{payload})
}

// AppendBatch appends records under a single lock acquisition and, under
// SyncAlways, returns once one fsync covers the whole batch — the
// group-commit path: the TCP handler commits a run, a shard worker a
// drained batch, and concurrent committers share the fsync. Records land
// in slice order; payloads may alias a caller-owned arena and are copied
// out before return. On error, records before the failure may have been
// written (the same partial-durability window a crash leaves, and the
// replay path already tolerates it).
func (l *Log) AppendBatch(tag byte, payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	for _, p := range payloads {
		if 1+len(p) > MaxRecord {
			return fmt.Errorf("wal: record payload of %d bytes exceeds %d", len(p), MaxRecord-1)
		}
	}
	l.mu.Lock()
	err := l.usableLocked()
	records, bytes := 0, 0
	for err == nil && records < len(payloads) {
		var n int
		if n, err = l.frameLocked(tag, payloads[records]); err == nil {
			records++
			bytes += n
		}
	}
	end := l.end
	l.mu.Unlock()
	if bytes > 0 {
		l.opts.Ins.observeAppend(records, bytes)
	}
	if err != nil {
		return err
	}
	if l.opts.Sync == SyncAlways {
		return l.syncTo(end)
	}
	return nil
}

func (l *Log) usableLocked() error {
	if l.closed {
		return errClosed
	}
	return l.failed
}

// frameLocked frames one record straight into the segment buffer, after
// rotating when the active segment is full, and returns its framed size.
// Caller holds mu; a rotation releases it while the next segment is
// created.
func (l *Log) frameLocked(tag byte, p []byte) (int, error) {
	if l.size >= l.opts.SegmentBytes {
		from := l.seg
		l.mu.Unlock()
		_, err := l.rotate(from)
		l.mu.Lock()
		if err == nil {
			err = l.usableLocked()
		}
		if err != nil {
			return 0, err
		}
	}
	n := recordOverhead + len(p)
	if len(l.buf)+n > cap(l.buf) {
		if err := l.flushLocked(); err != nil {
			return 0, err
		}
	}
	if n <= cap(l.buf) {
		l.buf = appendRecord(l.buf, tag, p)
	} else {
		l.scratch = appendRecord(l.scratch[:0], tag, p)
		if _, err := l.f.Write(l.scratch); err != nil {
			return 0, l.failLocked(err)
		}
	}
	l.size += int64(n)
	l.end += int64(n)
	return n, nil
}

// flushLocked hands the segment buffer to the active file.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	_, err := l.f.Write(l.buf)
	l.buf = l.buf[:0]
	if err != nil {
		return l.failLocked(err)
	}
	return nil
}

// failLocked records the first error that leaves the log unable to vouch
// for bytes it accepted: a dropped buffer, or an fsync whose failure may
// have lost pages. Every later append and sync returns it.
func (l *Log) failLocked(err error) error {
	if l.failed == nil {
		l.failed = err
	}
	return l.failed
}

// Sync flushes buffered appends and returns once they are durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	end, err := l.end, l.usableLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.syncTo(end)
}

// syncTo returns once an fsync covering logical offset target has
// finished: at once when one already has, else after waiting for the
// round in flight and, if that did not cover target, running one.
func (l *Log) syncTo(target int64) error {
	if l.durable.Load() >= target {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.durable.Load() >= target {
		return nil
	}
	return l.round(target)
}

// seal returns once every rotated-out segment is sealed and the segment
// after it published.
func (l *Log) seal() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.round(0)
}

// round is one sync round; the caller holds syncMu. It seals every
// rotated-out segment, oldest first — fsync, close, then rename the next
// segment to its name and sync the directory — and when target lies past
// them also flushes the buffer and fsyncs the active segment; then it
// advances the durable offset past what it covered. Only the flush runs
// under mu.
func (l *Log) round(target int64) error {
	l.mu.Lock()
	if l.failed != nil {
		l.mu.Unlock()
		return l.failed
	}
	seals := l.sealing
	l.sealing = nil
	var active *os.File
	var upTo int64
	var err error
	if n := len(seals); n > 0 {
		upTo = seals[n-1].end
	}
	if target > upTo {
		if l.f == nil {
			err = errClosed
		} else if err = l.flushLocked(); err == nil {
			active, upTo = l.f, l.end
		}
	}
	l.mu.Unlock()

	for _, s := range seals {
		if err == nil {
			err = l.syncFile(s.f)
		}
		if e := s.f.Close(); err == nil {
			err = e
		}
		if err == nil {
			err = l.publish(s.idx + 1)
		}
	}
	if err == nil && active != nil {
		err = l.syncFile(active)
	}
	if err != nil {
		if !errors.Is(err, errClosed) {
			l.mu.Lock()
			err = l.failLocked(err)
			l.mu.Unlock()
		}
		return err
	}
	if upTo > l.durable.Load() {
		l.durable.Store(upTo)
	}
	return nil
}

// publish gives segment idx its name once the segment before it is
// sealed, and makes the entry durable.
func (l *Log) publish(idx int) error {
	if err := os.Rename(filepath.Join(l.dir, pendingName(idx)), filepath.Join(l.dir, segmentName(idx))); err != nil {
		return err
	}
	return syncDir(l.dir)
}

func (l *Log) syncFile(f *os.File) error {
	start := time.Now()
	if err := l.fsync(f); err != nil {
		return err
	}
	l.opts.Ins.observeFsync(time.Since(start))
	return nil
}

// syncer is the background half of the sync path: the SyncInterval
// ticker's rounds, and the seal of a segment an append rotated out. A
// failed round stays on the log and surfaces on the next foreground call.
func (l *Log) syncer() {
	defer close(l.done)
	var tick <-chan time.Time
	if l.opts.Sync == SyncInterval {
		t := time.NewTicker(l.opts.SyncEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			l.mu.Lock()
			end := l.end
			l.mu.Unlock()
			_ = l.syncTo(end)
		case <-l.sealDue:
			_ = l.seal()
		case <-l.stop:
			return
		}
	}
}

// Rotate starts a fresh segment and returns its index once the segment
// it replaced is sealed (fsynced and closed) and the new one published.
func (l *Log) Rotate() (int, error) {
	idx, err := l.rotate(0)
	if err != nil {
		return 0, err
	}
	return idx, l.seal()
}

// rotate makes segment from+1 active and returns its index — unless a
// racing rotation already moved past from, when it returns the active
// index; from 0 rotates whatever segment is active. The next segment is
// created outside mu under its pending name; under mu the old buffer is
// flushed and the file swapped, and the old segment is left to the next
// round to seal, which publishes the new one.
func (l *Log) rotate(from int) (int, error) {
	l.rotMu.Lock()
	defer l.rotMu.Unlock()
	l.mu.Lock()
	cur, err := l.seg, l.usableLocked()
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if from != 0 && from != cur {
		return cur, nil
	}
	f, err := createSegment(filepath.Join(l.dir, pendingName(cur+1)))
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		f.Close()
		// Best effort: a header-only segment left behind holds no record.
		_ = os.Remove(f.Name())
		return 0, err
	}
	l.sealing = append(l.sealing, unsealed{f: l.f, idx: cur, end: l.end})
	l.f, l.seg, l.size = f, cur+1, segmentHeaderLen
	l.segments++
	n := l.segments
	l.mu.Unlock()
	l.opts.Ins.observeSegments(n)
	select {
	case l.sealDue <- struct{}{}:
	default: // already woken
	}
	return cur + 1, nil
}

// RemoveSegmentsBefore deletes every segment with index < idx — the
// truncation after a checkpoint, whose Mark published segment idx — but
// never the active one, and returns how many it deleted.
func (l *Log) RemoveSegmentsBefore(idx int) (int, error) {
	l.mu.Lock()
	closed := l.closed
	idx = min(idx, l.seg)
	l.mu.Unlock()
	if closed {
		return 0, errClosed
	}
	idxs, _, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, i := range idxs {
		if i >= idx {
			break
		}
		if err = os.Remove(filepath.Join(l.dir, segmentName(i))); err != nil {
			if errors.Is(err, fs.ErrNotExist) { // a concurrent truncation took it
				err = nil
				continue
			}
			break
		}
		removed++
	}
	if err == nil && removed > 0 {
		err = syncDir(l.dir)
	}
	l.mu.Lock()
	l.segments -= removed
	n := l.segments
	l.mu.Unlock()
	l.opts.Ins.observeSegments(n)
	return removed, err
}

// Position names a place in the log: a byte offset in a segment.
type Position struct {
	Seg int
	Off int64
}

// Mark returns where the next record will be appended, once every record
// before it is durable in a published segment: a checkpoint that covers
// them replays from there.
func (l *Log) Mark() (Position, error) {
	l.mu.Lock()
	at, end, err := Position{l.seg, l.size}, l.end, l.usableLocked()
	l.mu.Unlock()
	if err != nil {
		return at, err
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.durable.Load() >= end {
		end = 0 // only seal what a rotation left
	}
	return at, l.round(end)
}

// Replay reads every record from position from on (the zero Position:
// all), in order, calling fn(tag, payload) for each; the payload is only
// valid during the call. A torn record at the tail of the last segment
// ends the replay cleanly (Open has already truncated it from the file);
// corruption anywhere else returns an error wrapping ErrCorrupt. Call
// before the first Append.
func (l *Log) Replay(from Position, fn func(tag byte, payload []byte) error) error {
	active, err := l.Mark() // the file reads below see what was appended before
	if err != nil {
		return err
	}
	if from.Seg > active.Seg || from.Seg == active.Seg && from.Off > active.Off {
		return fmt.Errorf("%w: replay from segment %d offset %d, past the log's end", ErrCorrupt, from.Seg, from.Off)
	}
	idxs, _, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, idx := range idxs {
		if idx < from.Seg {
			continue
		}
		off := int64(segmentHeaderLen)
		if idx == from.Seg {
			off = max(off, from.Off)
		}
		if _, err := scanSegment(filepath.Join(l.dir, segmentName(idx)), idx == active.Seg, off, fn); err != nil {
			return err
		}
	}
	return nil
}

// SegmentCount returns how many segment files the log currently holds.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segments
}

// Close flushes, fsyncs and closes the log. Records appended before a
// clean Close are durable under every sync policy.
func (l *Log) Close() error {
	l.rotMu.Lock() // no rotation is half done
	l.mu.Lock()
	closed := l.closed
	l.closed = true
	l.mu.Unlock()
	l.rotMu.Unlock()
	if closed {
		return nil
	}
	close(l.stop)
	<-l.done
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	err := l.round(math.MaxInt64) // the active segment too, appended to or not
	l.mu.Lock()
	f, seals := l.f, l.sealing // seals are left only by a failed log
	l.f, l.sealing = nil, nil
	l.mu.Unlock()
	for _, s := range seals {
		s.f.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
