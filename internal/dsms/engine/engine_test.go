package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"streamkf/internal/core"
)

// recordSink captures applied updates, remembering which shard applied
// each source and asserting batches never carry a foreign source.
type recordSink struct {
	mu       sync.Mutex
	seqs     map[string][]int
	vals     map[string][]float64
	shardOf  map[string]int
	mismatch []string
}

func newRecordSink() *recordSink {
	return &recordSink{seqs: map[string][]int{}, vals: map[string][]float64{}, shardOf: map[string]int{}}
}

func (rs *recordSink) ApplyBatch(shard int, batch []core.Update) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i := range batch {
		u := &batch[i]
		if prev, ok := rs.shardOf[u.SourceID]; ok && prev != shard {
			rs.mismatch = append(rs.mismatch, fmt.Sprintf("%s applied by shards %d and %d", u.SourceID, prev, shard))
		}
		rs.shardOf[u.SourceID] = shard
		rs.seqs[u.SourceID] = append(rs.seqs[u.SourceID], u.Seq)
		rs.vals[u.SourceID] = append(rs.vals[u.SourceID], u.Values[0])
	}
}

// blockSink parks every apply until released — for ring-full tests.
type blockSink struct{ release chan struct{} }

func (bs *blockSink) ApplyBatch(int, []core.Update) { <-bs.release }

func mkUpdate(id string, seq int) core.Update {
	return core.Update{SourceID: id, Seq: seq, Time: float64(seq), Values: []float64{float64(seq) * 0.5}}
}

// fill is a lane's handling of one datagram update: claim the shard's
// next slot, write id/seq's update into it in place, commit. False when
// the ring shed it.
func fill(p *Producer, shard int, id string, seq int) bool {
	u := p.Next(shard)
	if u == nil {
		return false
	}
	u.SourceID, u.Seq, u.Time = id, seq, float64(seq)
	u.Values = append(u.Values[:0], float64(seq)*0.5)
	p.Commit(shard)
	return true
}

func TestShardForDeterministicAndSpread(t *testing.T) {
	sink := newRecordSink()
	e := New(sink, Options{Shards: 8})
	defer e.Close()
	seen := map[int]int{}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("src-%d", i)
		s1, s2 := e.ShardFor(id), e.ShardFor(id)
		if s1 != s2 {
			t.Fatalf("ShardFor(%q) unstable: %d vs %d", id, s1, s2)
		}
		if s1 < 0 || s1 >= 8 {
			t.Fatalf("ShardFor(%q) = %d out of range", id, s1)
		}
		seen[s1]++
	}
	for sh := 0; sh < 8; sh++ {
		if seen[sh] == 0 {
			t.Fatalf("shard %d received no sources out of 1000 — hash not spreading", sh)
		}
	}
}

func TestEngineSingleProducerOrdered(t *testing.T) {
	sink := newRecordSink()
	e := New(sink, Options{Shards: 4, RingSize: 64})
	defer e.Close()
	p := e.Producer()
	const sources, per = 16, 200
	for seq := 0; seq < per; seq++ {
		for s := 0; s < sources; s++ {
			id := fmt.Sprintf("src-%d", s)
			u := mkUpdate(id, seq)
			if !p.Offer(e.ShardFor(id), &u) {
				t.Fatalf("Offer rejected before Close")
			}
		}
	}
	e.Quiesce()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.mismatch) > 0 {
		t.Fatalf("shard ownership violated: %v", sink.mismatch)
	}
	for s := 0; s < sources; s++ {
		id := fmt.Sprintf("src-%d", s)
		seqs := sink.seqs[id]
		if len(seqs) != per {
			t.Fatalf("%s: got %d updates, want %d", id, len(seqs), per)
		}
		for i, got := range seqs {
			if got != i {
				t.Fatalf("%s: update %d arrived with seq %d — order violated", id, i, got)
			}
			if want := float64(i) * 0.5; sink.vals[id][i] != want {
				t.Fatalf("%s: seq %d carried value %v, want %v — slot reuse corrupted payload", id, i, sink.vals[id][i], want)
			}
		}
	}
}

// TestEngineConcurrentProducers is the -race workhorse: several
// producers on distinct goroutines hammer disjoint source sets while
// workers drain. Per-source order and shard ownership must survive.
func TestEngineConcurrentProducers(t *testing.T) {
	sink := newRecordSink()
	e := New(sink, Options{Shards: 4, RingSize: 32})
	defer e.Close()
	const producers, sourcesEach, per = 4, 8, 300
	var wg sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		p := e.Producer()
		wg.Add(1)
		go func(pi int, p *Producer) {
			defer wg.Done()
			for seq := 0; seq < per; seq++ {
				for s := 0; s < sourcesEach; s++ {
					id := fmt.Sprintf("p%d-src-%d", pi, s)
					u := mkUpdate(id, seq)
					p.Offer(e.ShardFor(id), &u)
				}
			}
		}(pi, p)
	}
	wg.Wait()
	e.Quiesce()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.mismatch) > 0 {
		t.Fatalf("shard ownership violated: %v", sink.mismatch)
	}
	for pi := 0; pi < producers; pi++ {
		for s := 0; s < sourcesEach; s++ {
			id := fmt.Sprintf("p%d-src-%d", pi, s)
			seqs := sink.seqs[id]
			if len(seqs) != per {
				t.Fatalf("%s: got %d updates, want %d", id, len(seqs), per)
			}
			for i, got := range seqs {
				if got != i {
					t.Fatalf("%s: position %d has seq %d — per-source order violated", id, i, got)
				}
			}
			if e.ShardFor(id) != sink.shardOf[id] {
				t.Fatalf("%s: applied on shard %d but ShardFor says %d", id, sink.shardOf[id], e.ShardFor(id))
			}
		}
	}
}

func TestEngineNextShedsWhenFull(t *testing.T) {
	bs := &blockSink{release: make(chan struct{})}
	e := New(bs, Options{Shards: 1, RingSize: 8})
	p := e.Producer()
	// Fill until the ring rejects, flushing as a lane does per datagram:
	// the worker may take a published batch into the blocked ApplyBatch,
	// whose slots stay taken while it blocks.
	accepted, rejected := 0, 0
	for i := 0; i < 64; i++ {
		if i%4 == 0 {
			p.Flush()
		}
		if fill(p, 0, "only", i) {
			accepted++
		} else {
			rejected++
		}
	}
	p.Flush()
	if rejected == 0 {
		t.Fatalf("expected Next refusals with a blocked sink (accepted=%d)", accepted)
	}
	st := e.Stats()[0]
	if st.Dropped != uint64(rejected) {
		t.Fatalf("dropped counter = %d, want %d", st.Dropped, rejected)
	}
	if st.RingDepthHWM == 0 {
		t.Fatalf("ring depth high-water mark never recorded")
	}
	close(bs.release)
	e.Close()
}

func TestEngineCloseDrainsOffered(t *testing.T) {
	sink := newRecordSink()
	e := New(sink, Options{Shards: 2, RingSize: 256})
	p := e.Producer()
	const n = 500
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("src-%d", i%10)
		u := mkUpdate(id, i/10)
		p.Offer(e.ShardFor(id), &u)
	}
	e.Close()
	sink.mu.Lock()
	total := 0
	for _, s := range sink.seqs {
		total += len(s)
	}
	sink.mu.Unlock()
	if total != n {
		t.Fatalf("Close drained %d of %d offered updates", total, n)
	}
	u := mkUpdate("late", 0)
	if p.Offer(e.ShardFor("late"), &u) || p.Next(e.ShardFor("late")) != nil {
		t.Fatalf("offer accepted after Close")
	}
}

// TestEngineWakesParkedWorker ensures a worker parked on an empty ring
// is woken by the next publish rather than spinning or hanging.
func TestEngineWakesParkedWorker(t *testing.T) {
	sink := newRecordSink()
	e := New(sink, Options{Shards: 1, RingSize: 16})
	defer e.Close()
	p := e.Producer()
	for round := 0; round < 5; round++ {
		// Let the worker drain and park.
		e.Quiesce()
		time.Sleep(2 * time.Millisecond)
		u := mkUpdate("ping", round)
		p.Offer(0, &u)
		done := make(chan struct{})
		go func() { e.Quiesce(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: parked worker never woke", round)
		}
	}
}

// TestNextCommitInvisibleUntilFlush pins the publication protocol of the
// datagram path: what Commit keeps is neither applied nor counted in
// Offered until Flush, which publishes it all; Quiesce then sees it
// through. A slot Next returned and nobody committed is returned again.
func TestNextCommitInvisibleUntilFlush(t *testing.T) {
	sink := newRecordSink()
	e := New(sink, Options{Shards: 2, RingSize: 16})
	defer e.Close()
	p := e.Producer()
	ids := []string{"a", "b", "c", "d", "e"}
	for seq := 0; seq < 2; seq++ {
		for _, id := range ids {
			sh := e.ShardFor(id)
			if claimed := p.Next(sh); claimed == nil || p.Next(sh) != claimed {
				t.Fatalf("Next(%d) before %s/%d: %p, then another slot", sh, id, seq, claimed)
			}
			if !fill(p, sh, id, seq) {
				t.Fatalf("Next for %s/%d shed on an empty ring", id, seq)
			}
		}
	}
	time.Sleep(5 * time.Millisecond) // a worker that could see them would have applied them
	if e.Offered() != 0 || e.Applied() != 0 {
		t.Fatalf("before Flush: offered %d, applied %d, want 0 and 0", e.Offered(), e.Applied())
	}
	p.Flush()
	if got := e.Offered(); got != 10 {
		t.Fatalf("after Flush: offered %d, want 10", got)
	}
	e.Quiesce()
	p.Flush() // nothing pending: publishes nothing
	if e.Offered() != 10 || e.Applied() != 10 {
		t.Fatalf("after Quiesce: offered %d, applied %d, want 10 and 10", e.Offered(), e.Applied())
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, id := range ids {
		if got := fmt.Sprint(sink.seqs[id]); got != "[0 1]" {
			t.Fatalf("%s applied seqs %s, want [0 1]", id, got)
		}
	}
}

// TestNextShedsExactlyTheOverflow: a datagram with more updates than the
// ring has free slots sheds the overflow — decided on the unpublished
// write cursor — counts it, and delivers the rest in order.
func TestNextShedsExactlyTheOverflow(t *testing.T) {
	sink := newRecordSink()
	e := New(sink, Options{Shards: 1, RingSize: 8})
	defer e.Close()
	p := e.Producer()
	accepted := 0
	for seq := 0; seq < 13; seq++ {
		if fill(p, 0, "only", seq) {
			accepted++
		}
	}
	if st := e.Stats()[0]; accepted != 8 || st.Dropped != 5 || st.Offered != 0 {
		t.Fatalf("13 updates into 8 free slots: accepted %d, dropped %d, offered %d; want 8, 5, 0", accepted, st.Dropped, st.Offered)
	}
	p.Flush()
	e.Quiesce()
	if st := e.Stats()[0]; st.Offered != 8 || st.Applied != 8 || st.RingDepthHWM != 8 {
		t.Fatalf("after Flush: %+v, want offered 8, applied 8, depth high-water 8", st)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if got := fmt.Sprint(sink.seqs["only"]); got != "[0 1 2 3 4 5 6 7]" {
		t.Fatalf("applied seqs %s, want the first 8 in order", got)
	}
}

// TestDeferredWritesWrapAround drives a 4-slot ring through many wraps in
// datagrams of three: every slot is rewritten in place while unpublished
// neighbours wait, and order and payloads must survive.
func TestDeferredWritesWrapAround(t *testing.T) {
	sink := newRecordSink()
	e := New(sink, Options{Shards: 1, RingSize: 4})
	defer e.Close()
	p := e.Producer()
	const n = 300
	for seq := 0; seq < n; {
		for k := 0; k < 3 && seq < n; k++ {
			if !fill(p, 0, "w", seq) {
				t.Fatalf("seq %d shed with the ring quiesced before its datagram", seq)
			}
			seq++
		}
		p.Flush()
		e.Quiesce()
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.seqs["w"]) != n {
		t.Fatalf("applied %d of %d", len(sink.seqs["w"]), n)
	}
	for i, seq := range sink.seqs["w"] {
		if seq != i || sink.vals["w"][i] != float64(i)*0.5 {
			t.Fatalf("position %d: seq %d value %v", i, seq, sink.vals["w"][i])
		}
	}
}

// segmentSink checks that every batch is the ring's own slots at its
// unmoved head and records the batch lengths and rounds.
type segmentSink struct {
	t      *testing.T
	rings  []*ring
	lens   []int
	seqs   []string
	rounds int
}

func (ss *segmentSink) ApplyBatch(_ int, batch []core.Update) {
	owned := false
	for _, r := range ss.rings {
		owned = owned || &batch[0] == &r.slots[r.head.Load()&r.mask]
	}
	if !owned {
		ss.t.Fatalf("batch of %d is not a ring's slots at its head", len(batch))
	}
	ss.lens = append(ss.lens, len(batch))
	for _, u := range batch {
		ss.seqs = append(ss.seqs, fmt.Sprintf("%s/%d", u.SourceID, u.Seq))
	}
}

func (ss *segmentSink) EndRound(int) { ss.rounds++ }

// TestSegmentStopsAtBatchSizeAndWrap: a round applies up to BatchSize
// published updates, ring by ring, where they lie — one ApplyBatch per
// segment, cut at the end of the slot array and where the round's
// BatchSize runs out — and frees each segment (its head store) only after
// the call that read it; one EndRound closes each round, and the next
// round resumes where the last one stopped.
func TestSegmentStopsAtBatchSizeAndWrap(t *testing.T) {
	const size, start, n = 2 * BatchSize, 2*BatchSize - 12, BatchSize + 44
	sh := &shard{wake: make(chan struct{}, 1)}
	rings := []*ring{newRing(size, sh), newRing(size, sh)}
	sh.rings.Store(&rings)
	rings[0].head.Store(start)
	rings[0].tail.Store(start)
	rings[0].next = start
	for i, r := range rings {
		for seq := 0; seq < []int{n, 5}[i]; seq++ {
			u := &r.slots[r.next&r.mask]
			u.SourceID, u.Seq = fmt.Sprintf("r%d", i), seq
			r.next++
		}
		r.publish()
	}
	ss := &segmentSink{t: t, rings: rings}
	e := &Engine{sink: ss}
	for _, want := range []struct {
		applied int
		lens    string
		heads   [2]uint64
	}{
		// ring 0: 12 to the end of the array, then the rest of BatchSize.
		{BatchSize, "[12 244]", [2]uint64{start + BatchSize, 0}},
		// ring 0's last 44, then ring 1.
		{49, "[12 244 44 5]", [2]uint64{start + n, 5}},
		{0, "[12 244 44 5]", [2]uint64{start + n, 5}},
	} {
		got := e.round(sh)
		if h := [2]uint64{rings[0].head.Load(), rings[1].head.Load()}; got != want.applied || fmt.Sprint(ss.lens) != want.lens || h != want.heads {
			t.Fatalf("round applied %d in segments %v, heads %v; want %d in %s, heads %v", got, ss.lens, h, want.applied, want.lens, want.heads)
		}
	}
	for at, want := range map[int]string{0: "r0/0", 11: "r0/11", 12: "r0/12", 255: "r0/255", 256: "r0/256", 299: "r0/299", 300: "r1/0", 304: "r1/4"} {
		if ss.seqs[at] != want {
			t.Fatalf("update %d applied is %s, want %s", at, ss.seqs[at], want)
		}
	}
	if ss.rounds != 2 || sh.applied.Load() != n+5 {
		t.Fatalf("%d rounds ended, %d applied; want 2 and %d", ss.rounds, sh.applied.Load(), n+5)
	}
}

// TestNextCommitFlushConcurrentLanes is the -race workhorse of the
// deferred path: lanes fill datagram-sized groups in place and flush
// while the workers apply; nothing is lost, duplicated or reordered within
// a source.
func TestNextCommitFlushConcurrentLanes(t *testing.T) {
	sink := newRecordSink()
	e := New(sink, Options{Shards: 2, RingSize: 64})
	defer e.Close()
	const lanes, sourcesEach, per = 3, 4, 400
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int, p *Producer) {
			defer wg.Done()
			for seq := 0; seq < per; seq++ {
				for s := 0; s < sourcesEach; s++ {
					id := fmt.Sprintf("l%d-s%d", l, s)
					for !fill(p, e.ShardFor(id), id, seq) {
						p.Flush() // full of its own unpublished writes, or the worker is behind
						runtime.Gosched()
					}
				}
				if seq%3 == 0 {
					p.Flush()
				}
			}
			p.Flush()
		}(l, e.Producer())
	}
	wg.Wait()
	e.Quiesce()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for l := 0; l < lanes; l++ {
		for s := 0; s < sourcesEach; s++ {
			id := fmt.Sprintf("l%d-s%d", l, s)
			if len(sink.seqs[id]) != per {
				t.Fatalf("%s: applied %d of %d", id, len(sink.seqs[id]), per)
			}
			for i, seq := range sink.seqs[id] {
				if seq != i || sink.vals[id][i] != float64(i)*0.5 {
					t.Fatalf("%s: position %d has seq %d value %v", id, i, seq, sink.vals[id][i])
				}
			}
		}
	}
}
