package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to the log reader both as the
// mutable tail segment and as a sealed (rotated) segment. Whatever the
// bytes, Open and Replay must return clean errors or truncate cleanly —
// never panic, and never hand a record to the callback that was not
// CRC-framed as one.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(segmentHeader())
	f.Add(appendRecord(segmentHeader(), 0x11, []byte("seed")))
	// A record whose length field lies.
	f.Add(append(segmentHeader(), 0xff, 0xff, 0xff, 0xff, 0x11, 1, 2, 3))
	// A valid record followed by garbage.
	f.Add(append(appendRecord(segmentHeader(), 0x10, []byte("ok")), 7, 7, 7))

	f.Fuzz(func(t *testing.T, data []byte) {
		// As the tail segment: invalid suffixes are truncated away, and
		// the repaired log must accept appends and replay consistently.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Sync: SyncOff})
		if err == nil {
			records := 0
			if err := l.Replay(Position{}, func(tag byte, p []byte) error {
				records++
				return nil
			}); err != nil {
				t.Errorf("tail replay after successful Open: %v", err)
			}
			if err := l.Append(0x7f, []byte("post")); err != nil {
				t.Errorf("append after repair: %v", err)
			}
			after := 0
			if err := l.Replay(Position{}, func(byte, []byte) error { after++; return nil }); err != nil {
				t.Errorf("replay after append: %v", err)
			}
			if after != records+1 {
				t.Errorf("replay after append saw %d records, want %d", after, records+1)
			}
			l.Close()
		}

		// As a sealed segment (a later segment exists): same bytes, but
		// now any invalidity must surface as a Replay error, not silent
		// truncation.
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, segmentName(2)), segmentHeader(), 0o644); err != nil {
			t.Fatal(err)
		}
		if l2, err := Open(dir2, Options{Sync: SyncOff}); err == nil {
			_ = l2.Replay(Position{}, func(byte, []byte) error { return nil })
			l2.Close()
		}
	})
}

// FuzzReadCheckpoint asserts the checkpoint reader rejects arbitrary
// bytes without panicking.
func FuzzReadCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DKFC"))
	good := func() []byte {
		dir := f.TempDir()
		if err := WriteCheckpoint(dir, []byte("snapshot payload")); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, CheckpointName))
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}()
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, CheckpointName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = ReadCheckpoint(dir)
	})
}
