package core

import (
	"math"
	"strconv"
	"testing"
	"unsafe"

	"streamkf/internal/kalman"
	"streamkf/internal/model"
)

// TestBlockPool pins the pool's contract: blocks are whole cache lines
// starting on one, distinct, zeroed, sized at least as asked; a returned
// block is the next one handed out for its length and for no other; and a
// request larger than a chunk is served.
func TestBlockPool(t *testing.T) {
	var p BlockPool
	seen := make(map[*float64]bool)
	for i := 0; i < 3*poolChunk/32; i++ { // three chunks of 29-float blocks
		b := p.Get(29)
		if len(b) != 32 || cap(b) != 32 {
			t.Fatalf("a 29-float request got len %d cap %d, want 32", len(b), cap(b))
		}
		if addr := uintptr(unsafe.Pointer(&b[0])); addr%64 != 0 {
			t.Fatalf("block %d starts at %#x, not on a cache line", i, addr)
		}
		if seen[&b[0]] {
			t.Fatalf("block %d was handed out twice", i)
		}
		seen[&b[0]] = true
		for _, v := range b {
			if v != 0 {
				t.Fatal("a fresh block is not zeroed")
			}
		}
		b[0], b[31] = 1, 1 // the next block must not alias this one
	}
	back := p.Get(29)
	clear(back)
	p.Put(back)
	if other := p.Get(39); &other[0] == &back[0] {
		t.Fatal("a 39-float request took a 32-float block")
	}
	if again := p.Get(25); &again[0] != &back[0] {
		t.Fatal("a returned block was not the next one handed out for its length")
	}
	if big := p.Get(2 * poolChunk); len(big) != 2*poolChunk || uintptr(unsafe.Pointer(&big[0]))%64 != 0 {
		t.Fatalf("a request past the chunk size got %d floats", len(big))
	}
	p.Put(nil) // what releasing a node never built yields
}

// TestServerNodeInPlace: a node built over a caller's block — alone, or out
// of a pool — follows the heap node's trajectory bit for bit, shares its
// Config with another, hands the block back zeroed, and refuses what the
// heap constructor refuses without touching a thing.
func TestServerNodeInPlace(t *testing.T) {
	cfg := linearCfg(1)
	heap, err := NewServerNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := cfg
	shared.SourceID = "" // one Config for every stream deployed alike
	var pool BlockPool
	var a, b ServerNode
	if err := a.Init(&shared, make([]float64, shared.NodeBlockLen())); err != nil {
		t.Fatal(err)
	}
	if err := b.Install(&shared, &pool); err != nil {
		t.Fatal(err)
	}
	if !a.Installed() || a.Bootstrapped() || a.Filter() != nil {
		t.Fatal("a node just built is not installed and awaiting its bootstrap")
	}
	for seq := 0; seq < 40; seq += 1 + seq%3 {
		u := Update{SourceID: "s1", Seq: seq, Values: []float64{math.Sin(float64(seq))}, Bootstrap: seq == 0}
		for _, n := range []*ServerNode{heap, &a, &b} {
			if err := n.ApplyUpdate(u); err != nil {
				t.Fatal(err)
			}
		}
		if !kalman.StateEqual(heap.Filter(), a.Filter()) || !kalman.StateEqual(heap.Filter(), b.Filter()) {
			t.Fatalf("seq %d: in-place nodes left the heap node", seq)
		}
	}
	if ha, hh := a.Health(), heap.Health(); ha != hh || !ha.Ready {
		t.Fatalf("health of the in-place node %+v, heap node %+v", ha, hh)
	}
	block := b.Release()
	if b.Installed() || len(block) != (shared.NodeBlockLen()+7)&^7 {
		t.Fatalf("Release left the node installed or returned %d floats", len(block))
	}
	for _, v := range block {
		if v != 0 {
			t.Fatal("a released block is not zeroed")
		}
	}
	if (&ServerNode{}).Release() != nil {
		t.Fatal("releasing a node never built returned a block")
	}

	if err := a.Init(&shared, make([]float64, shared.NodeBlockLen()-1)); err == nil || !a.Bootstrapped() {
		t.Fatalf("Init over a short block: err %v, node still bootstrapped %v", err, a.Bootstrapped())
	}
	pool.Put(block)
	bad := Config{Model: model.Linear(1, 1, 0.05, 0.05), Delta: -1}
	var c ServerNode
	if err := c.Install(&bad, &pool); err == nil || c.Installed() {
		t.Fatal("Install accepted a negative delta")
	}
	if got := pool.Get(shared.NodeBlockLen()); &got[0] != &block[0] {
		t.Fatal("a refused Install kept a block of the pool's")
	}
	want := uintptr(120) // 76 with a 32-bit build's 4-byte words
	if strconv.IntSize == 32 {
		want = 76
	}
	if n := unsafe.Sizeof(ServerNode{}); n != want {
		t.Fatalf("ServerNode is %d bytes, want %d", n, want)
	}
}
