package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

type rec struct {
	tag     byte
	payload []byte
}

// collect replays the log into a slice.
func collect(t *testing.T, l *Log) []rec {
	t.Helper()
	var out []rec
	err := l.Replay(Position{}, func(tag byte, p []byte) error {
		out = append(out, rec{tag, append([]byte(nil), p...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func wantRecords(t *testing.T, got, want []rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].tag != want[i].tag || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d = {0x%02x %x}, want {0x%02x %x}",
				i, got[i].tag, got[i].payload, want[i].tag, want[i].payload)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: sync, SyncEvery: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			want := []rec{
				{0x10, []byte("hello")},
				{0x11, nil},
				{0x12, bytes.Repeat([]byte{0xab}, 1000)},
				{0x11, []byte{0}},
			}
			for _, r := range want {
				if err := l.Append(r.tag, r.payload); err != nil {
					t.Fatal(err)
				}
			}
			// Replay sees buffered-but-unsynced appends too.
			wantRecords(t, collect(t, l), want)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// A clean Close makes every append durable under any policy.
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			wantRecords(t, collect(t, l2), want)
		})
	}
}

func TestAppendRejectsOversizedPayload(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(1, make([]byte, MaxRecord)); err == nil {
		t.Fatal("oversized append succeeded")
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if err := l.Append(1, nil); !errors.Is(err, errClosed) {
		t.Fatalf("Append after Close = %v", err)
	}
	if err := l.Sync(); !errors.Is(err, errClosed) {
		t.Fatalf("Sync after Close = %v", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, errClosed) {
		t.Fatalf("Rotate after Close = %v", err)
	}
}

func TestRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every append past the first rotates.
	l, err := Open(dir, Options{Sync: SyncOff, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []rec
	for i := 0; i < 5; i++ {
		r := rec{0x11, []byte{byte(i)}}
		if err := l.Append(r.tag, r.payload); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if n := l.SegmentCount(); n < 4 {
		t.Fatalf("SegmentCount = %d, want >= 4 after 5 one-byte-threshold appends", n)
	}
	wantRecords(t, collect(t, l), want)

	// Rotate seals the tail; removing everything before the new active
	// segment leaves only records appended after.
	active, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if removed, err := l.RemoveSegmentsBefore(active); err != nil || removed == 0 {
		t.Fatalf("RemoveSegmentsBefore = %d, %v", removed, err)
	}
	if n := l.SegmentCount(); n != 1 {
		t.Fatalf("SegmentCount after truncation = %d, want 1", n)
	}
	tail := rec{0x12, []byte("after")}
	if err := l.Append(tail.tag, tail.payload); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, l), []rec{tail})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// The one-byte threshold rotates again on the post-truncation append,
	// so the reopened tail is at least the post-checkpoint segment.
	if at, err := l2.Mark(); err != nil || at.Seg < active {
		t.Fatalf("active segment after reopen = %d (%v), want >= %d", at.Seg, err, active)
	}
	wantRecords(t, collect(t, l2), []rec{tail})
}

// TestTornTailEveryOffset is the crash simulation the recovery invariant
// rests on: whatever byte the last segment is cut at, Open must recover
// exactly the records whose frames fit before the cut, truncate the
// rest, and accept new appends.
func TestTornTailEveryOffset(t *testing.T) {
	// Build a reference segment.
	refDir := t.TempDir()
	l, err := Open(refDir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var want []rec
	ends := []int64{segmentHeaderLen} // cumulative record end offsets
	for i := 0; i < 5; i++ {
		r := rec{0x10 + byte(i%3), bytes.Repeat([]byte{byte(i)}, 3+i*2)}
		if err := l.Append(r.tag, r.payload); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
		ends = append(ends, ends[len(ends)-1]+recordOverhead+int64(len(r.payload)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(refDir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != ends[len(ends)-1] {
		t.Fatalf("segment is %d bytes, expected %d", len(full), ends[len(ends)-1])
	}

	for cut := 0; cut <= len(full); cut++ {
		// How many complete records survive a cut at this offset?
		complete := 0
		for complete < len(want) && ends[complete+1] <= int64(cut) {
			complete++
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		got := collect(t, l)
		wantRecords(t, got, want[:complete])
		// The log must be writable after repair, and the new record must
		// land right after the surviving prefix.
		extra := rec{0x1f, []byte("post-crash")}
		if err := l.Append(extra.tag, extra.payload); err != nil {
			t.Fatalf("cut %d: Append after repair: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		wantRecords(t, collect(t, l2), append(append([]rec{}, want[:complete]...), extra))
		l2.Close()
	}
}

func TestSealedSegmentCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(0x11, []byte("sealed payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(0x11, []byte("tail payload")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the sealed (non-tail) segment.
	path := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segmentHeaderLen+7] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.Replay(Position{}, func(byte, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay over corrupt sealed segment = %v, want ErrCorrupt", err)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte("not a wal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The tail-segment scan hits a bad magic; that is corruption, not a
	// torn write (the header is not a record).
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over foreign file = %v, want ErrCorrupt", err)
	}
}

// TestReplayFromMark: a replay from a Mark reads exactly the records
// appended after it, seeking into the marked segment and skipping whole
// segments before it — also when a size-triggered rotation moved the log
// on in between, and after a reopen.
func TestReplayFromMark(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var after []rec
	var at Position
	for i := 0; i < 12; i++ {
		r := rec{0x13, bytes.Repeat([]byte{byte(i)}, 20)}
		if i == 7 {
			if at, err = l.Mark(); err != nil {
				t.Fatal(err)
			}
		}
		if i >= 7 {
			after = append(after, r)
		}
		if err := l.Append(r.tag, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	if at.Seg < 2 {
		t.Fatalf("Mark at %+v: the 64-byte segments should have rotated before it", at)
	}
	if removed, err := l.RemoveSegmentsBefore(at.Seg); err != nil || removed == 0 {
		t.Fatalf("RemoveSegmentsBefore(%d) = %d, %v", at.Seg, removed, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []rec
	if err := l2.Replay(at, func(tag byte, p []byte) error {
		got = append(got, rec{tag, append([]byte(nil), p...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, got, after)
	end, err := l2.Mark()
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Replay(Position{end.Seg + 1, segmentHeaderLen}, func(byte, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay past the log's end = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if p, err := ReadCheckpoint(dir); p != nil || err != nil {
		t.Fatalf("ReadCheckpoint on empty dir = %x, %v; want nil, nil", p, err)
	}
	payload := bytes.Repeat([]byte{1, 2, 3}, 100)
	if err := WriteCheckpoint(dir, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(dir)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadCheckpoint = %d bytes, %v", len(got), err)
	}
	// Overwrite is atomic-replace: the new payload fully supersedes.
	if err := WriteCheckpoint(dir, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadCheckpoint(dir); err != nil || string(got) != "v2" {
		t.Fatalf("ReadCheckpoint after overwrite = %q, %v", got, err)
	}

	// Any in-file corruption is detected.
	path := filepath.Join(dir, CheckpointName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(dir); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(dir); err == nil {
			t.Fatalf("truncation at byte %d went undetected", cut)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

func TestIntervalFlusherMakesAppendsDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(0x11, []byte("ticked")); err != nil {
		t.Fatal(err)
	}
	// The background flusher must push the buffered append to the file
	// without any foreground Sync.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := os.Stat(filepath.Join(dir, segmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > segmentHeaderLen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval flusher never flushed the append")
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}

func TestRecordFrameSelfChecks(t *testing.T) {
	b := appendRecord(nil, 0x42, []byte("payload"))
	tag, payload, _, err := readRecord(bytes.NewReader(b), nil)
	if err != nil || tag != 0x42 || string(payload) != "payload" {
		t.Fatalf("round trip = 0x%02x %q, %v", tag, payload, err)
	}
	// Every single-byte flip must be caught by the CRC (or the length
	// bound) — never returned as a valid record.
	for i := range b {
		bad := append([]byte(nil), b...)
		bad[i] ^= 0x01
		if _, _, _, err := readRecord(bytes.NewReader(bad), nil); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
	// A cut at the boundary is a clean EOF; anywhere inside is a torn
	// tail, never a valid record.
	for cut := 0; cut < len(b); cut++ {
		_, _, _, err := readRecord(bytes.NewReader(b[:cut]), nil)
		if cut == 0 {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("empty stream = %v, want io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, errTornTail) {
			t.Fatalf("truncation at byte %d = %v, want errTornTail", cut, err)
		}
	}
}

func TestReplayStopsOnCallbackError(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	boom := fmt.Errorf("boom")
	calls := 0
	err = l.Replay(Position{}, func(byte, []byte) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("Replay = %v after %d calls, want boom after 2", err, calls)
	}
}
