package wal

import "os"

// SetFsync replaces the file sync that sync rounds and seals call, so a
// test can hold one. Safe while the log is in use.
func (l *Log) SetFsync(fn func(*os.File) error) {
	l.syncMu.Lock()
	l.fsync = fn
	l.syncMu.Unlock()
}

// Appended returns the logical offset past the last framed byte, or -1
// while mu is held, so a test fails rather than hangs on a log that
// holds mu across the disk.
func (l *Log) Appended() int64 {
	if !l.mu.TryLock() {
		return -1
	}
	defer l.mu.Unlock()
	return l.end
}
