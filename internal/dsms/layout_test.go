package dsms

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"streamkf/internal/core"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
)

// bootAll registers, installs and bootstraps n streams of model on a new
// server, ids model-0 … model-(n-1) under queries q/<id>, and returns what
// each cost the heap: bytes still held, and objects allocated.
func bootAll(t testing.TB, model string, n int) (s *Server, ids []string, bytes uint64, mallocs float64) {
	t.Helper()
	s = NewServer(testCatalog())
	ids = make([]string, n)
	queries := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", model, i)
		queries[i] = "q/" + ids[i]
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	u := core.Update{Values: []float64{1}, Bootstrap: true}
	for i, id := range ids {
		if err := s.Register(stream.Query{ID: queries[i], SourceID: id, Delta: 1, Model: model}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.InstallFor(id); err != nil {
			t.Fatal(err)
		}
		u.SourceID = id
		if err := s.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return s, ids, (after.HeapAlloc - before.HeapAlloc) / uint64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestStreamFootprint is the per-stream memory budget: heap bytes and heap
// objects one registered, installed and bootstrapped stream adds, over
// 20,000 streams behind no transport. A `constant` stream's 528 B are its
// 256 B record (257 with the last chunk's spare records), its 128 B slab
// block, its 64 B point-query record, ≈ 27 B of the queries map and its
// 32 B slot of the id index at most 3/4 full (≈ 52 B); a `linear` stream's
// block is 256 B. With 16 innovations in the block instead of the
// whiteness sums (256 B and 320 B blocks) these read 656 B and 723 B; with
// a 320 B record, a 64 B slot and the queries in a slice of stream.Query
// beside a 32 B query record, 805 B (constant) and 872 B (linear) in 3.03
// objects; before the record was laid out by the handle, 1,725 B and
// 1,901 B in about 14 objects.
func TestStreamFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 20,000 streams twice")
	}
	for _, tc := range []struct {
		model  string
		budget uint64
	}{{"constant", 540}, {"linear", 670}} {
		s, _, bytes, mallocs := bootAll(t, tc.model, 20000)
		t.Logf("%s: %d B and %.2f heap objects per stream", tc.model, bytes, mallocs)
		if bytes > tc.budget {
			t.Errorf("%s: %d B per stream, budget %d", tc.model, bytes, tc.budget)
		}
		if mallocs > 3 {
			t.Errorf("%s: %.2f heap objects per stream, budget 3", tc.model, mallocs)
		}
		runtime.KeepAlive(s)
	}
}

// blockOf returns where a stream's node keeps its floats.
func blockOf(st *sourceState) *float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return unsafe.SliceData(st.node.Filter().Block())
}

// TestStreamStateInPlace pins what never allocates and never moves once a
// stream is installed: a re-bootstrap and a node restore rebuild the
// filter in the block it has, and a migration restore onto a live stream
// keeps both its record and its block.
func TestStreamStateInPlace(t *testing.T) {
	s, _, _, _ := bootAll(t, "linear", 1)
	st := s.source("linear-0")
	block := blockOf(st)
	feed(t, s, "linear-0", 20)

	boot := core.Update{SourceID: "linear-0", Seq: 40, Time: 40, Values: []float64{3}, Bootstrap: true}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := st.node.ApplyUpdate(boot); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a re-bootstrap allocates %v, want 0", allocs)
	}
	feed(t, s, "linear-0", 20)
	snap := st.node.Snapshot()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := st.node.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RestoreSnapshot allocates %v, want 0", allocs)
	}
	if got := st.node.Snapshot(); fmt.Sprint(got) != fmt.Sprint(snap) {
		t.Errorf("restored node snapshots as %+v, want %+v", got, snap)
	}

	payload, _, err := s.SnapshotSource("linear-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RestoreSource(payload, 2); err != nil {
		t.Fatal(err)
	}
	if s.source("linear-0") != st || blockOf(st) != block {
		t.Errorf("RestoreSource moved the stream: record %p → %p, block %p → %p", st, s.source("linear-0"), block, blockOf(st))
	}
	feed(t, s, "linear-0", 5)
}

// TestSlabRecycle: a dropped registration's block goes back to its
// length's free list, the next install of that length takes it — zeroed —
// and no block is ever under two streams.
func TestSlabRecycle(t *testing.T) {
	s, ids, _, _ := bootAll(t, "constant", 300) // past two pool chunks
	owner := make(map[*float64]string)
	for _, id := range ids {
		b := blockOf(s.source(id))
		if uintptr(unsafe.Pointer(b))%64 != 0 {
			t.Fatalf("%s's block at %p is not on a cache line", id, b)
		}
		if other, dup := owner[b]; dup {
			t.Fatalf("%s and %s share a block", id, other)
		}
		owner[b] = id
	}
	var freed []*float64
	for _, id := range ids[100:110] {
		feed(t, s, id, 5) // innovations in the window: the block is not zero
		freed = append(freed, blockOf(s.source(id)))
	}
	s.mu.Lock()
	for _, id := range ids[100:110] {
		s.dropLocked("q/" + id)
	}
	s.mu.Unlock()
	boot := func(id, model string) *sourceState {
		mustRegister(t, s, stream.Query{ID: "q/" + id, SourceID: id, Delta: 1, Model: model})
		if _, err := s.InstallFor(id); err != nil {
			t.Fatal(err)
		}
		if err := s.HandleUpdate(core.Update{SourceID: id, Values: []float64{1}, Bootstrap: true}); err != nil {
			t.Fatal(err)
		}
		return s.source(id)
	}
	other := blockOf(boot("other-shape", "linear"))
	for i := range freed {
		if other == freed[i] {
			t.Fatal("a linear stream took a constant stream's block")
		}
		st := boot(fmt.Sprintf("again-%d", i), "constant")
		if b, want := blockOf(st), freed[len(freed)-1-i]; b != want {
			t.Fatalf("%s got block %p, want the freed %p", st.id, b, want)
		}
		for _, v := range st.node.Filter().Spare() {
			if v != 0 {
				t.Fatalf("%s took over a block that was not zeroed", st.id)
			}
		}
	}
	if st := boot("fresh", "constant"); owner[blockOf(st)] != "" {
		t.Fatalf("with the free list empty, %s was handed %s's block", st.id, owner[blockOf(st)])
	}
}

// TestTableGrowthUnderLoad grows the handle table and the slabs by several
// chunks while two goroutines ingest into, and one answers from, streams
// registered before the growth: their records and blocks, by addresses
// taken beforehand, must still be theirs afterwards.
func TestTableGrowthUnderLoad(t *testing.T) {
	s, ids, _, _ := bootAll(t, "constant", 8)
	recs := make([]*sourceState, len(ids))
	blocks := make([]*float64, len(ids))
	for i, id := range ids {
		recs[i], blocks[i] = s.source(id), blockOf(s.source(id))
	}
	const rounds = 400
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 1; seq <= rounds; seq++ {
				for i := w; i < len(ids); i += 2 {
					u := core.Update{SourceID: ids[i], Seq: seq, Time: float64(seq), Values: []float64{float64(i)}, Handle: recs[i].handle}
					if err := s.HandleUpdate(u); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for _, id := range ids {
				if _, err := s.Answer("q/"+id, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 4*streamChunk; i++ {
		id := fmt.Sprintf("late-%d", i)
		mustRegister(t, s, stream.Query{ID: "q/" + id, SourceID: id, Delta: 1, Model: "constant"})
		if _, err := s.InstallFor(id); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, id := range ids {
		if s.source(id) != recs[i] || s.streams.at(recs[i].handle) != recs[i] || blockOf(recs[i]) != blocks[i] {
			t.Fatalf("%s moved while the table grew", id)
		}
		got, err := s.Answer("q/"+id, rounds)
		if err != nil {
			t.Fatal(err)
		}
		if d := got[0] - float64(i); d > 0.01 || d < -0.01 {
			t.Fatalf("%s answers %v after %d updates of %d: not its own stream's state", id, got, rounds, i)
		}
		if st := recs[i].stats(); st.Updates != rounds+1 {
			t.Fatalf("%s counts %d updates, want %d", id, st.Updates, rounds+1)
		}
	}
}

// TestReregisteredPastCapCountedOnce: an id dropped and registered again
// after the series cap's worth of other registrations has a handle past
// the cap, so it is in the "_other" roll-up and has no row of its own —
// rows follow handles, not ids — and the rows' counts sum to Stats'.
func TestReregisteredPastCapCountedOnce(t *testing.T) {
	s := NewServer(testCatalog())
	reg := func(id string) {
		mustRegister(t, s, stream.Query{ID: "q/" + id, SourceID: id, Delta: 1, Model: "constant"})
	}
	reg("again")
	feed(t, s, "again", 3)
	for i := 1; i < DefaultSourceMetricLimit+2; i++ {
		reg(fmt.Sprintf("s%04d", i))
	}
	feed(t, s, "s0001", 2)
	feed(t, s, fmt.Sprintf("s%04d", DefaultSourceMetricLimit+1), 4)
	s.mu.Lock()
	s.dropLocked("q/again")
	s.mu.Unlock()
	reg("again")
	feed(t, s, "again", 5)

	if _, ok := s.Telemetry().Get("dkf_server_updates_total", telemetry.L("source", "again")); ok {
		t.Error("an id re-registered past the cap kept a series of its own")
	}
	if got, _ := s.Telemetry().Get("dkf_server_updates_total", telemetry.L("source", "_other")); got != 4+5 {
		t.Errorf("_other counts %v updates, want the 4 + 5 of the two streams past the cap", got)
	}
	// The rows are read from one scrape: a Get per label would collect the
	// whole table once per label, 4,098 rows 4,099 times.
	var rows, stats float64
	var scrape strings.Builder
	if err := s.Telemetry().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(scrape.String(), "\n") {
		if row, ok := strings.CutPrefix(line, `dkf_server_updates_total{source="`); ok {
			_, count, _ := strings.Cut(row, `"} `)
			v, err := strconv.ParseFloat(count, 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			rows += v
		}
	}
	for _, st := range s.Stats() {
		stats += float64(st.Updates)
	}
	if rows != stats || stats != 2+4+5 {
		t.Errorf("rows sum to %v updates, Stats to %v, fed 11 to live streams", rows, stats)
	}
}
