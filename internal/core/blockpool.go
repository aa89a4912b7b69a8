package core

import (
	"sync"
	"unsafe"
)

// BlockPool hands out the float blocks ServerNodes are built over (Init)
// when a server keeps thousands of them: carved in request order from
// 32 KB chunks that never move, every block a whole number of cache lines
// starting on one — so two workers stepping neighbouring nodes never share
// a line — and taken back, zeroed (Release), onto a free list per block
// length. The zero value is ready; safe for concurrent use.
type BlockPool struct {
	mu   sync.Mutex
	rest []float64           // what is left of the newest chunk
	free map[int][][]float64 // returned blocks, by length
}

// poolChunk is the pool's chunk size in floats: 32 KB, the largest small
// size class, so a server of a few nodes pays for one.
const poolChunk = 4096

// Get returns a zeroed block of at least n floats.
func (p *BlockPool) Get(n int) []float64 {
	n = (n + 7) &^ 7
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.free[n]; len(f) > 0 {
		p.free[n] = f[:len(f)-1]
		return f[len(f)-1]
	}
	if len(p.rest) < n {
		// Seven floats of slack start the chunk on a cache line wherever
		// the allocator put it.
		chunk := make([]float64, max(poolChunk, n+7))
		p.rest = chunk[-uintptr(unsafe.Pointer(&chunk[0]))%64/8:]
	}
	block := p.rest[:n:n]
	p.rest = p.rest[n:]
	return block
}

// Put takes back a block Get handed out, zeroed by its user; an empty
// block — what releasing a node that was never built yields — is ignored.
func (p *BlockPool) Put(block []float64) {
	if len(block) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[int][][]float64)
	}
	p.free[len(block)] = append(p.free[len(block)], block)
}
