package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncGate holds every fsync a sync round or seal issues: started gets
// one value as each begins, and each send on release lets one finish.
// started holds 64, more fsyncs than any case issues, so a start the test
// does not wait for never blocks the round.
type syncGate struct {
	l       *Log
	started chan struct{}
	release chan struct{}
	calls   atomic.Int32
	once    sync.Once
}

func holdFsyncs(l *Log) *syncGate {
	g := &syncGate{l: l, started: make(chan struct{}, 64), release: make(chan struct{})}
	l.SetFsync(func(f *os.File) error {
		g.calls.Add(1)
		g.started <- struct{}{}
		<-g.release
		return f.Sync()
	})
	return g
}

// open lets every held and later fsync through and restores the real one.
func (g *syncGate) open() {
	g.once.Do(func() {
		close(g.release)
		g.l.SetFsync((*os.File).Sync)
	})
}

func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal(what)
		panic("unreachable")
	}
}

func awaitTrue(t *testing.T, ok func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

// TestAppendWhileSyncStalls: the disk never sits inside the append path.
// Under off and interval an append finishes while the ticker's fsync, a
// Rotate's seal or a Sync is held. Under always a batch returns only
// after an fsync that began once its bytes were written, and committers
// that queued behind one held fsync share the next.
func TestAppendWhileSyncStalls(t *testing.T) {
	payload := make([]byte, 44)
	batch := [][]byte{payload, payload, payload}
	for _, policy := range []SyncPolicy{SyncOff, SyncInterval} {
		for _, held := range []string{"ticker", "rotate", "sync"} {
			if held == "ticker" && policy != SyncInterval {
				continue
			}
			t.Run(policy.String()+"/"+held, func(t *testing.T) {
				every := time.Hour
				if held == "ticker" {
					every = time.Millisecond
				}
				l, err := Open(t.TempDir(), Options{Sync: policy, SyncEvery: every})
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				g := holdFsyncs(l)
				defer g.open()
				if err := l.Append(0x11, payload); err != nil { // something for the held fsync to cover
					t.Fatal(err)
				}
				returned := make(chan error, 1)
				switch held {
				case "rotate":
					go func() { _, err := l.Rotate(); returned <- err }()
				case "sync":
					go func() { returned <- l.Sync() }()
				}
				await(t, g.started, "no fsync began")
				appended := make(chan error, 1)
				go func() {
					err := l.Append(0x11, payload)
					if err == nil {
						err = l.AppendBatch(0x11, batch)
					}
					appended <- err
				}()
				if err := await(t, appended, "an append waited for a held fsync"); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-returned:
					t.Fatalf("%s returned (%v) before its fsync finished", held, err)
				default:
				}
				g.open()
				if held != "ticker" {
					if err := await(t, returned, held+" never returned"); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}

	t.Run("always", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		g := holdFsyncs(l)
		defer g.open()
		first := make(chan error, 1)
		go func() { first <- l.AppendBatch(0x11, batch) }()
		await(t, g.started, "the first commit issued no fsync")

		const committers = 8
		var base int64
		awaitTrue(t, func() bool { base = l.Appended(); return base >= 0 }, "mu stayed held across an fsync")
		frame := int64(len(batch) * (recordOverhead + len(payload)))
		var wg sync.WaitGroup
		var returned atomic.Int32
		for i := 0; i < committers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := l.AppendBatch(0x11, batch); err != nil {
					t.Error(err)
				}
				returned.Add(1)
			}()
		}
		awaitTrue(t, func() bool { return l.Appended() == base+committers*frame },
			"committers could not frame their batches while an fsync was held")
		if n := returned.Load(); n != 0 {
			t.Fatalf("%d committers returned before any fsync covered their bytes", n)
		}
		g.release <- struct{}{} // the held fsync began before their bytes were written
		if err := await(t, first, "the first commit never returned"); err != nil {
			t.Fatal(err)
		}
		await(t, g.started, "no fsync began for the queued committers")
		if n := returned.Load(); n != 0 {
			t.Fatalf("%d committers returned on an fsync that began before their bytes were written", n)
		}
		g.open()
		wg.Wait()
		if n := g.calls.Load() - 1; n > 2 {
			t.Fatalf("%d more fsyncs released %d committers queued behind one held fsync, want at most 2", n, committers)
		}
	})
}

// TestRotationPublishesAfterSeal: a rotation's next segment keeps its
// pending name until the segment before it is sealed, so the directory
// never shows a segment after one whose tail a power loss could tear. The
// directory as it stands while the seal is held opens to the old segment
// alone: Open deletes the pending file, records in it included.
func TestRotationPublishesAfterSeal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	small, big := []byte{1, 2, 3}, make([]byte, 70<<10) // big skips the buffer
	if err := l.Append(0x11, small); err != nil {
		t.Fatal(err)
	}
	g := holdFsyncs(l)
	defer g.open()
	rotated := make(chan error, 1)
	go func() { _, err := l.Rotate(); rotated <- err }()
	await(t, g.started, "Rotate issued no seal")
	if err := l.Append(0x12, big); err != nil {
		t.Fatal(err)
	}
	segs, pending, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != 1 || len(pending) != 1 || pending[0] != pendingName(2) {
		t.Fatalf("while segment 1's seal is held the directory shows segments %v, pending %v; want [1], [%s]",
			segs, pending, pendingName(2))
	}

	snap := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snap, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := Open(snap, Options{Sync: SyncOff})
	if err != nil {
		t.Fatalf("opening the directory as it stood during the seal: %v", err)
	}
	wantRecords(t, collect(t, ls), []rec{{0x11, small}})
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	if _, pending, _ := listSegments(snap); len(pending) != 0 {
		t.Fatalf("Open left pending segment files %v", pending)
	}

	g.open()
	if err := await(t, rotated, "Rotate never returned"); err != nil {
		t.Fatal(err)
	}
	if segs, pending, _ := listSegments(dir); len(segs) != 2 || len(pending) != 0 {
		t.Fatalf("after the seal the directory shows segments %v, pending %v; want [1 2], none", segs, pending)
	}
	wantRecords(t, collect(t, l), []rec{{0x11, small}, {0x12, big}})
}

// TestRotateRacesAppends: four writers commit batches into segments small
// enough to rotate by size, while another goroutine runs the checkpoint's
// Rotate → RemoveSegmentsBefore. Rotations keep their order, the
// directory keeps a contiguous run of segments the log counts right, and
// the replay — before and after a reopen — holds each writer's records in
// order with none missing past the truncated prefix. Then Close races a
// fast ticker: nothing lost, no error.
func TestRotateRacesAppends(t *testing.T) {
	const writers, batches, per, size = 4, 400, 16, 44
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: time.Millisecond, SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// write has every writer commit batches [from, to) concurrently and
	// calls first once the first writer is done.
	write := func(from, to int, first func()) {
		var wg sync.WaitGroup
		var once sync.Once
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer once.Do(first)
				arena, recs := make([]byte, per*size), make([][]byte, per)
				for b := from; b < to; b++ {
					for k := range recs {
						r := arena[k*size : (k+1)*size]
						r[0] = byte(w)
						binary.LittleEndian.PutUint32(r[1:], uint32(b*per+k))
						recs[k] = r
					}
					if err := l.AppendBatch(0x11, recs); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	stop, rotated := make(chan struct{}), make(chan []int, 1)
	go func() {
		// Truncate behind the previous rotation rather than this one, so
		// the records appended between the last two survive to be checked.
		var idxs []int
		defer func() { rotated <- idxs }()
		for prev := 1; ; {
			select {
			case <-stop:
				return
			default:
			}
			idx, err := l.Rotate()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := l.RemoveSegmentsBefore(prev); err != nil {
				t.Error(err)
				return
			}
			idxs, prev = append(idxs, idx), idx
		}
	}()
	// Rotations stop once a writer is done, so the last two bracket
	// appends; then a last batch each gives every writer a tail to check.
	write(0, batches-1, func() { close(stop) })
	idxs := <-rotated
	write(batches-1, batches, func() {})
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < len(idxs); i++ {
		if idxs[i] <= idxs[i-1] {
			t.Fatalf("Rotate returned segment %d after %d", idxs[i], idxs[i-1])
		}
	}
	// A size rotation's segment is published once the background goroutine
	// seals the one before it; Sync seals whatever it has not reached yet.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, pending, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			t.Fatalf("segments on disk %v are not contiguous", segs)
		}
	}
	if at, err := l.Mark(); err != nil || len(segs) == 0 || segs[len(segs)-1] != at.Seg || len(pending) != 0 {
		t.Fatalf("segments on disk %v (pending %v) do not end at the active segment %d (%v)", segs, pending, at.Seg, err)
	}
	if n := l.SegmentCount(); n != len(segs) {
		t.Fatalf("SegmentCount = %d, %d segments on disk", n, len(segs))
	}

	got := collect(t, l)
	next := make([]int, writers) // each writer's next expected seq; -1 before its first
	for w := range next {
		next[w] = -1
	}
	for i, r := range got {
		if r.tag != 0x11 || len(r.payload) != size || int(r.payload[0]) >= writers {
			t.Fatalf("record %d is not one a writer appended: {0x%02x % x}", i, r.tag, r.payload)
		}
		w, seq := int(r.payload[0]), int(binary.LittleEndian.Uint32(r.payload[1:]))
		if next[w] >= 0 && seq != next[w] {
			t.Fatalf("writer %d: record %d follows %d", w, seq, next[w]-1)
		}
		next[w] = seq + 1
	}
	for w, n := range next {
		if n != batches*per {
			t.Fatalf("writer %d: replay ends at %d, want %d records", w, n, batches*per)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, l2), got)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: 50 * time.Microsecond, SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		n := 40 + i
		for k := 0; k < n; k++ {
			if err := l.Append(0x11, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close racing the ticker: %v", err)
		}
		l2, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(collect(t, l2)); got != n {
			t.Fatalf("reopened after Close racing the ticker: %d records, want %d", got, n)
		}
		l2.Close()
	}
}
