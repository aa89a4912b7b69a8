// Package engine implements the shard-per-core ingest engine: every
// stream is pinned to one of N shards by a hash of its source id, and
// each shard owns a single worker goroutine that only applies, in batch,
// what its rings publish, where it lies. Network readers (or in-process
// producers) write updates into the owning shard's lock-free
// single-producer / single-consumer ring buffers, so the steady-state
// ingest path crosses no mutex between the socket and the filter apply.
//
// The decomposition is sound for the DKF workload because streams are
// independent filter pairs — there is no cross-stream state on the
// apply path (PAPERS.md's distributed Kalman-filtering decomposition is
// the same observation made formally). Shard ownership gives each
// stream a single writer, so per-update locking degenerates to one
// uncontended acquisition per *batch run*, and the write-ahead log can
// group-commit a whole round of batches.
//
// The package is deliberately ignorant of the DSMS: it moves
// core.Update values and calls a Sink. internal/dsms wires it to the
// server (dedup, apply, WAL batching, telemetry) and the UDP transport.
package engine

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"streamkf/internal/core"
)

// Sink consumes published batches. ApplyBatch is invoked only from the
// owning shard's worker goroutine — implementations need no locking
// against other shards, only against cross-shard readers of their own
// state. A batch aliases ring slots, which producers rewrite once
// ApplyBatch returns: the sink must not retain any of it.
type Sink interface {
	ApplyBatch(shard int, batch []core.Update)
}

// RoundEnder is a Sink told when a worker's round — up to BatchSize
// updates from the shard's rings, however many batches — ends, before its
// updates count as applied: where a sink group-commits.
type RoundEnder interface{ EndRound(shard int) }

// Options tunes an Engine.
type Options struct {
	// Shards is the number of shard workers. <= 0 uses
	// runtime.GOMAXPROCS(0).
	Shards int
	// RingSize is the per-(producer,shard) ring capacity, rounded up
	// to a power of two. <= 0 selects 1024.
	RingSize int
}

// BatchSize caps a worker's round (its ApplyBatch calls and group commit)
// and a chunk of a TCP read applied or relayed as one run.
const BatchSize = 256

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.RingSize <= 0 {
		o.RingSize = 1024
	}
	o.RingSize = 1 << bits.Len(uint(o.RingSize-1))
	return o
}

// ring is a lock-free SPSC queue of updates. head (consumer) and tail
// (producer) are monotonically increasing positions masked into the slot
// array, each on its own cache line, stored once per applied segment and
// once per publication. Slots in [tail, next), next the producer's own
// write cursor, are committed but not yet visible — a datagram's worth. A
// slot owns its Values storage, so rewriting it fills retained capacity.
type ring struct {
	mask  uint64
	slots []core.Update
	sh    *shard

	_    [64]byte
	head atomic.Uint64
	_    [56]byte
	tail atomic.Uint64
	_    [56]byte
	next uint64
}

func newRing(size int, sh *shard) *ring {
	return &ring{mask: uint64(size - 1), slots: make([]core.Update, size), sh: sh}
}

// full reports whether every slot is written and unapplied — by the write
// cursor, not the tail: an unpublished slot is as taken as a published one.
func (r *ring) full() bool { return r.next-r.head.Load() >= uint64(len(r.slots)) }

// publish makes every written slot visible to the worker: offered first
// (so offered >= visible items), then one tail store, depth note and wake
// check, however many slots that is.
func (r *ring) publish() {
	r.sh.offered.Add(r.next - r.tail.Load())
	r.tail.Store(r.next)
	r.sh.noteDepth(r.next - r.head.Load())
	r.sh.maybeWake()
}

// shard is one worker's world: the rings feeding it, its wake-up
// plumbing, and its occupancy counters.
type shard struct {
	id    int
	rings atomic.Pointer[[]*ring]

	// sleeping is 1 while the worker is parked (or about to park) on
	// wake. A producer that transitions it 1→0 owns the wake-up.
	sleeping atomic.Uint32
	wake     chan struct{}

	// offered counts updates published to this shard's rings (counted
	// before the publishing store, so offered >= visible items) and
	// applied counts updates handed to the sink. offered == applied
	// with quiescent producers means the shard is drained.
	offered atomic.Uint64
	applied atomic.Uint64
	// dropped counts Next refusals (ring full — datagram semantics shed
	// load instead of blocking the reader).
	dropped atomic.Uint64
	// depthHWM is the high-water mark of any feeding ring's occupancy.
	depthHWM atomic.Uint64
}

func (sh *shard) ringList() []*ring {
	if p := sh.rings.Load(); p != nil {
		return *p
	}
	return nil
}

// pending reports how many published updates await draining.
func (sh *shard) pending() uint64 {
	var n uint64
	for _, r := range sh.ringList() {
		n += r.tail.Load() - r.head.Load()
	}
	return n
}

// maybeWake hands the parked worker its wake-up token. Only the
// producer that wins the 1→0 transition sends, so the buffered channel
// never blocks; a stale token merely causes one spurious loop.
func (sh *shard) maybeWake() {
	if sh.sleeping.Load() == 1 && sh.sleeping.CompareAndSwap(1, 0) {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
}

// noteDepth folds a ring occupancy observation into the high-water mark.
func (sh *shard) noteDepth(d uint64) {
	for {
		cur := sh.depthHWM.Load()
		if d <= cur || sh.depthHWM.CompareAndSwap(cur, d) {
			return
		}
	}
}

// Engine is the shard set plus its workers.
type Engine struct {
	opts   Options
	sink   Sink
	shards []*shard

	mu     sync.Mutex // guards producer registration
	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// New builds and starts an engine delivering batches to sink.
func New(sink Sink, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{opts: opts, sink: sink, stop: make(chan struct{})}
	e.shards = make([]*shard, opts.Shards)
	for i := range e.shards {
		e.shards[i] = &shard{id: i, wake: make(chan struct{}, 1)}
	}
	e.wg.Add(len(e.shards))
	for _, sh := range e.shards {
		go e.run(sh)
	}
	return e
}

// Shards returns the shard count — also the worker parallelism.
func (e *Engine) Shards() int { return len(e.shards) }

// ShardFor returns the shard that owns sourceID. The pinning is a pure
// FNV-1a hash, so every producer and every reader agrees on ownership
// without coordination.
func (e *Engine) ShardFor(sourceID string) int {
	return int(fnv1a(sourceID) % uint64(len(e.shards)))
}

// fnv1a is an allocation-free FNV-1a over the id bytes.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Producer is one handoff lane into the engine: a private SPSC ring
// per shard. A Producer must be used from a single goroutine at a time;
// distinct producers (one per network reader) are fully independent.
type Producer struct {
	e     *Engine
	rings []*ring
}

// Producer registers a new producer lane. Safe to call while the
// engine is running; workers pick the new rings up on their next round.
func (e *Engine) Producer() *Producer {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := &Producer{e: e, rings: make([]*ring, len(e.shards))}
	for i, sh := range e.shards {
		r := newRing(e.opts.RingSize, sh)
		p.rings[i] = r
		next := append(slices.Clip(sh.ringList()), r) // workers may be reading the old list
		sh.rings.Store(&next)
	}
	return p
}

// Next returns shardID's slot at the write cursor, to fill in place, or
// nil — counting a drop — when the ring is full or the engine is closed:
// under overload a datagram reader sheds rather than block the socket.
// Until Commit, the next Next returns the same slot.
func (p *Producer) Next(shardID int) *core.Update {
	r := p.rings[shardID]
	if r.full() || p.e.closed.Load() {
		r.sh.dropped.Add(1)
		return nil
	}
	return &r.slots[r.next&r.mask]
}

// Commit keeps Next's slot: Flush makes it visible and counts it.
func (p *Producer) Commit(shardID int) { p.rings[shardID].next++ }

// Flush publishes what Commit kept, once per touched ring.
func (p *Producer) Flush() {
	for _, r := range p.rings {
		if r.next != r.tail.Load() {
			r.publish()
		}
	}
}

// Offer enqueues u and publishes at once, yielding until ring space
// frees — the in-process producer path, where backpressure is preferable
// to loss. Returns false only when the engine is closed.
func (p *Producer) Offer(shardID int, u *core.Update) bool {
	r := p.rings[shardID]
	for {
		if p.e.closed.Load() {
			return false
		}
		if !r.full() {
			slot := &r.slots[r.next&r.mask]
			*slot, slot.Values = *u, append(slot.Values[:0], u.Values...)
			r.next++
			r.publish()
			return true
		}
		runtime.Gosched()
	}
}

// segment returns the published slots in [h, t), cut at the end of the
// slot array: a run that wraps is two segments.
func (r *ring) segment(h, t uint64) []core.Update {
	i := h & r.mask
	return r.slots[i : i+min(t-h, uint64(len(r.slots))-i)]
}

// round applies up to BatchSize published updates, ring by ring, where
// they lie: one ApplyBatch per segment, whose slots are freed once it
// returns. Returns the count.
func (e *Engine) round(sh *shard) int {
	n := 0
	for _, r := range sh.ringList() {
		for h, t := r.head.Load(), r.tail.Load(); h != t && n < BatchSize; {
			seg := r.segment(h, min(t, h+uint64(BatchSize-n)))
			e.sink.ApplyBatch(sh.id, seg)
			h += uint64(len(seg))
			r.head.Store(h)
			n += len(seg)
		}
	}
	if n > 0 {
		if re, ok := e.sink.(RoundEnder); ok {
			re.EndRound(sh.id)
		}
		sh.applied.Add(uint64(n))
	}
	return n
}

// run is the shard worker: apply rounds, park when idle.
func (e *Engine) run(sh *shard) {
	defer e.wg.Done()
	for {
		if e.round(sh) > 0 {
			continue
		}
		if e.closed.Load() {
			// Final sweep raced a producer's last publish: loop until
			// the rings are provably empty, then exit.
			if sh.pending() == 0 {
				return
			}
			continue
		}
		// Announce the nap, then re-check: a producer that published
		// before seeing sleeping=1 is caught by the pending() check; one
		// that published after will win the 1→0 CAS and send the token.
		sh.sleeping.Store(1)
		if sh.pending() > 0 || e.closed.Load() {
			sh.sleeping.Store(0)
			continue
		}
		select {
		case <-sh.wake:
		case <-e.stop:
		}
		sh.sleeping.Store(0)
	}
}

// Quiesce blocks until every update offered so far has been applied.
// Meaningful only once producers have stopped offering (tests, drain
// before shutdown); with live producers it chases a moving target.
func (e *Engine) Quiesce() {
	for _, sh := range e.shards {
		for sh.applied.Load() < sh.offered.Load() {
			runtime.Gosched()
		}
	}
}

// Close drains what was already offered, stops the workers, and waits
// them out. Offers after Close return false.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	close(e.stop)
	e.wg.Wait()
}

// ShardStats is one shard's occupancy snapshot.
type ShardStats struct {
	Shard        int    `json:"shard"`
	Offered      uint64 `json:"offered"`
	Applied      uint64 `json:"applied"`
	Dropped      uint64 `json:"dropped"`
	RingDepthHWM uint64 `json:"ring_depth_hwm"`
}

// Offered returns the total updates accepted onto rings across all
// shards. Allocation-free, so producers can poll it for flow control —
// a datagram source that bounds sent−Offered() keeps the kernel socket
// buffer from overflowing into silent loss.
func (e *Engine) Offered() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.offered.Load()
	}
	return n
}

// Applied returns the total updates folded into filters across all
// shards. Allocation-free, for the same polling uses as Offered.
func (e *Engine) Applied() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.applied.Load()
	}
	return n
}

// Stats snapshots every shard's counters.
func (e *Engine) Stats() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, sh := range e.shards {
		out[i] = ShardStats{
			Shard:        i,
			Offered:      sh.offered.Load(),
			Applied:      sh.applied.Load(),
			Dropped:      sh.dropped.Load(),
			RingDepthHWM: sh.depthHWM.Load(),
		}
	}
	return out
}
