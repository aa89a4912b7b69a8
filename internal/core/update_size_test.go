package core

import (
	"testing"
	"unsafe"
)

// TestUpdateSize pins Update at 64 bytes — one cache line, and the slot
// size of every ingest ring: Handle rides in the padding after Bootstrap.
func TestUpdateSize(t *testing.T) {
	if n := unsafe.Sizeof(Update{}); n != 64 {
		t.Fatalf("Update is %d bytes, want 64", n)
	}
}
