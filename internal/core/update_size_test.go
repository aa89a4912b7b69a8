package core

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestUpdateSize pins Update at 64 bytes — one cache line, and the slot
// size of every ingest ring: Handle rides in the padding after Bootstrap.
// A 32-bit build's 4-byte words make it 40.
func TestUpdateSize(t *testing.T) {
	want := uintptr(64)
	if strconv.IntSize == 32 {
		want = 40
	}
	if n := unsafe.Sizeof(Update{}); n != want {
		t.Fatalf("Update is %d bytes, want %d", n, want)
	}
}
