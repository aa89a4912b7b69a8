package dsms

import (
	"fmt"
	"math"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"streamkf/internal/core"
	"streamkf/internal/kalman"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/wal"
)

// TestSourceStateSize pins the stream record at four cache lines exactly —
// records sit by value in the handle table's chunks, so a size off a
// multiple of 64 would have neighbours on different shards share a line —
// with its topology in the first line and its runtime state from the
// second on, the values embedded in it at the sizes DESIGN §14 budgets, and
// an id-index slot at half a line.
func TestSourceStateSize(t *testing.T) {
	if n := unsafe.Sizeof(sourceState{}); n != 256 {
		t.Fatalf("sourceState is %d bytes, want 256", n)
	}
	if off := unsafe.Offsetof(sourceState{}.version); off != 64 {
		t.Fatalf("sourceState's runtime fields start at byte %d, want 64", off)
	}
	if n := unsafe.Sizeof(core.ServerNode{}); n != 120 {
		t.Fatalf("core.ServerNode is %d bytes, want 120", n)
	}
	if n := unsafe.Sizeof(kalman.Filter{}); n != 64 {
		t.Fatalf("kalman.Filter is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(core.Update{}); n != 64 {
		t.Fatalf("core.Update is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(idSlot{}); n != 32 {
		t.Fatalf("idSlot is %d bytes, want 32", n)
	}
}

// streamz returns the engine block of the status document.
func engineBlock(t *testing.T, s *Server) *EngineStreamz {
	t.Helper()
	z := s.Streamz().Engine
	if z == nil {
		t.Fatal("no engine attached")
	}
	return z
}

// TestUDPHandleLifetime walks a handle through its states: a dropped
// registration leaves a nil entry that a stale handle cannot resolve (the
// update is refused as unknown and touches no other stream), a wrong handle
// on a synchronous update is overruled by the id, a released stream is
// refused, and a restored one applies again.
func TestUDPHandleLifetime(t *testing.T) {
	s, ts := newUDPPair(t, stream.Query{ID: "q-keep", SourceID: "keep", Delta: 1, Model: "constant"})
	send := func(u core.Update) {
		t.Helper()
		ts.processDatagram(updateDatagram(t, &u), netip.AddrPort{})
		ts.eng.Quiesce()
	}
	updates := func(id string) int {
		for _, st := range s.Stats() {
			if st.SourceID == id {
				return st.Updates
			}
		}
		return -1
	}
	boot := func(id string) core.Update {
		return core.Update{SourceID: id, Values: []float64{1}, Bootstrap: true}
	}

	// A registration the lane has seen, then dropped: its handle's entry is
	// nil, the index no longer holds its id, and the update is unknown.
	mustRegister(t, s, stream.Query{ID: "q-gone", SourceID: "gone", Delta: 1, Model: "constant"})
	gone := s.source("gone").handle
	send(boot("gone"))
	if got := updates("gone"); got != 1 {
		t.Fatalf("first contact applied %d updates, want 1", got)
	}
	s.mu.Lock()
	s.dropLocked("q-gone")
	s.mu.Unlock()
	if s.streams.at(gone) != nil {
		t.Fatal("dropped registration kept its handle entry")
	}
	before := engineBlock(t, s).UnknownSource
	send(core.Update{SourceID: "gone", Seq: 1, Time: 1, Values: []float64{2}})
	if got := engineBlock(t, s).UnknownSource - before; got != 1 {
		t.Fatalf("update for a dropped stream counted %d unknown, want 1", got)
	}
	if got := updates("keep"); got != 0 {
		t.Fatalf("update for a dropped stream reached another stream (%d updates)", got)
	}

	// The id registers again: a new record under a new handle, found by id.
	mustRegister(t, s, stream.Query{ID: "q-gone2", SourceID: "gone", Delta: 1, Model: "constant"})
	if h := s.source("gone").handle; h == gone {
		t.Fatalf("handle %d reused", h)
	}
	send(boot("gone"))
	if got := updates("gone"); got != 1 {
		t.Fatalf("re-registered stream applied %d updates, want 1", got)
	}

	// A synchronous update naming another stream's handle goes by its id.
	if _, err := s.InstallFor("keep"); err != nil {
		t.Fatal(err)
	}
	u := boot("keep")
	u.Handle = s.source("gone").handle
	if err := s.HandleUpdate(u); err != nil {
		t.Fatal(err)
	}
	if k, g := updates("keep"), updates("gone"); k != 1 || g != 1 {
		t.Fatalf("wrong handle: keep has %d updates, gone %d, want 1 and 1", k, g)
	}
	u = core.Update{SourceID: "keep", Seq: 1, Time: 1, Values: []float64{1}, Handle: math.MaxInt32}
	if err := s.HandleUpdate(u); err != nil {
		t.Fatalf("a handle never handed out: %v", err)
	}

	// Released: the entry stays, the apply refuses. Restored: it applies.
	payload, _, err := s.SnapshotSource("keep", 2)
	if err != nil {
		t.Fatal(err)
	}
	rejected := engineBlock(t, s).Rejected
	send(core.Update{SourceID: "keep", Seq: 2, Time: 2, Values: []float64{1}})
	if got := engineBlock(t, s).Rejected - rejected; got != 1 || updates("keep") != 2 {
		t.Fatalf("released stream: %d rejected, %d updates, want 1 and 2", got, updates("keep"))
	}
	if _, _, err := s.RestoreSource(payload, 3); err != nil {
		t.Fatal(err)
	}
	send(core.Update{SourceID: "keep", Seq: 2, Time: 2, Values: []float64{1}})
	if got := updates("keep"); got != 3 {
		t.Fatalf("restored stream has %d updates, want 3", got)
	}
}

// TestUDPUnknownFlood pins what an id nobody registered costs the
// datagram path: a count, and nothing else — no allocation, no index
// growth or entry, no ring slot — and that it resolves once it registers.
func TestUDPUnknownFlood(t *testing.T) {
	s, ts := newUDPPair(t, udpQuery())
	const n = 10000
	grams := make([][]byte, n)
	for i := range grams {
		grams[i] = updateDatagram(t, &core.Update{SourceID: fmt.Sprintf("nobody-%d", i), Values: []float64{1}, Bootstrap: true})
	}
	ts.processDatagram(grams[0], netip.AddrPort{}) // warm the lane's decode scratch
	tab, entries, i := s.ids.tab.Load(), occupied(s), 0
	if allocs := testing.AllocsPerRun(n-2, func() {
		i++
		ts.processDatagram(grams[i], netip.AddrPort{})
	}); allocs != 0 {
		t.Fatalf("an unknown id allocates %v per update, want 0", allocs)
	}
	if s.ids.tab.Load() != tab || occupied(s) != entries || s.ids.n != entries {
		t.Fatalf("index changed under unknown ids: %d → %d entries, table replaced %v", entries, occupied(s), s.ids.tab.Load() != tab)
	}
	if z := engineBlock(t, s); z.UnknownSource != n || ts.eng.Offered() != 0 {
		t.Fatalf("unknown_source = %d, offered = %d, want %d and 0", z.UnknownSource, ts.eng.Offered(), n)
	}

	id := fmt.Sprintf("nobody-%d", n/2)
	mustRegister(t, s, stream.Query{ID: "q-late", SourceID: id, Delta: 1, Model: "constant"})
	ts.processDatagram(grams[n/2], netip.AddrPort{})
	ts.eng.Quiesce()
	if st := s.source(id).stats(); st.Updates != 1 {
		t.Fatalf("an id registered after the flood applied %d updates, want 1", st.Updates)
	}
}

// occupied counts the id index's filled slots.
func occupied(s *Server) (n int) {
	tab := *s.ids.tab.Load()
	for i := range tab {
		if tab[i].handle.Load() != 0 {
			n++
		}
	}
	return n
}

// TestIDIndexRaceAndShape registers, drops and re-registers the same ids
// through at least three table growths while two goroutines look every id
// up — by string, and by a view of a byte buffer as the UDP reader does. A lookup
// finds nothing, or its own id's canonical string and a handle that id was
// given (current or dropped), never another id's. The ids are 1 byte, a
// slot's inline length L less one, L, L+1 and 200 bytes long, and the last
// two kinds share their first L bytes.
func TestIDIndexRaceAndShape(t *testing.T) {
	s := NewServer(testCatalog())
	l := len(idSlot{}.head)
	xl := strings.Repeat("x", l)
	ids := []string{xl}
	for i := 0; i < 60; i++ {
		ids = append(ids, string(rune('!'+i)), fmt.Sprintf("%0*d", l-1, i), fmt.Sprintf("%0*d", l, i),
			xl+string(rune('!'+i)), xl+fmt.Sprintf("%0*d", 200-l, i))
	}
	// handle h's record, dead or alive: its id never changes.
	recordID := func(h int32) string {
		return (*s.streams.dir.Load())[(h-1)/streamChunk][(h-1)%streamChunk].id
	}
	check := func(id string, sl *idSlot) bool {
		if sl != nil && (sl.id() != id || recordID(sl.handle.Load()) != id) {
			t.Errorf("lookup of %q (%d B) found %q at handle %d, a record of %q", id, len(id), sl.id(), sl.handle.Load(), recordID(sl.handle.Load()))
			return false
		}
		return true
	}
	initial := len(*s.ids.tab.Load())
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bufs := make([][]byte, len(ids))
			for i, id := range ids {
				bufs[i] = []byte(id)
			}
			for {
				for i, id := range ids {
					sl := s.ids.find(id)
					if r == 1 {
						sl = s.ids.find(unsafe.String(unsafe.SliceData(bufs[i]), len(bufs[i])))
					} else if st := s.source(id); st != nil && st.id != id {
						t.Errorf("source(%q) is %q's record", id, st.id)
						return
					}
					if !check(id, sl) {
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(r)
	}
	reg := func(round int, id string) {
		mustRegister(t, s, stream.Query{ID: fmt.Sprintf("q%d/%s", round, id), SourceID: id, Delta: 1, Model: "constant"})
	}
	drop := func(round int, id string) {
		s.mu.Lock()
		s.dropLocked(fmt.Sprintf("q%d/%s", round, id))
		s.mu.Unlock()
	}
	for _, id := range ids {
		reg(0, id)
	}
	round := make([]int, len(ids)) // ids[i]'s live query is q<round[i]>/ids[i]
	for r := 1; r <= 3; r++ {
		for i := r % 3; i < len(ids); i += 3 {
			drop(round[i], ids[i])
			reg(r, ids[i])
			round[i] = r
		}
	}
	gone := map[string]bool{}
	for i := 0; i < len(ids); i += 5 {
		drop(round[i], ids[i])
		gone[ids[i]] = true
	}
	close(done)
	wg.Wait()

	tab := *s.ids.tab.Load()
	if len(tab) < 8*initial {
		t.Errorf("the index grew %d → %d slots, want at least three doublings", initial, len(tab))
	}
	if uintptr(unsafe.Pointer(&tab[0]))%64 != 0 {
		t.Errorf("the index's slots are not on cache lines")
	}
	if occupied(s) != s.ids.n || s.ids.n != len(ids)-len(gone) {
		t.Errorf("index holds %d slots, counts %d, want %d", occupied(s), s.ids.n, len(ids)-len(gone))
	}
	for _, id := range ids {
		sl, st := s.ids.find(id), s.source(id)
		switch {
		case gone[id] && (sl != nil || st != nil):
			t.Errorf("dropped %q still found", id)
		case !gone[id] && (st == nil || sl.handle.Load() != st.handle || s.streams.at(st.handle) != st):
			t.Errorf("%q not found at its current handle", id)
		}
		check(id, sl)
	}
}

// TestEngineAfterRegistration follows dkf-server's order — 2,000
// registrations, then the engine, then datagrams — and requires every
// stream's updates to be applied by the shard Engine.ShardFor names. The
// index caches each stream's shard, so StartEngine must republish it.
func TestEngineAfterRegistration(t *testing.T) {
	s := NewServer(testCatalog())
	const n = 2000
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s-%d", i)
		mustRegister(t, s, stream.Query{ID: "q/" + id, SourceID: id, Delta: 1, Model: "constant"})
	}
	eng := s.StartEngine(EngineOptions{Shards: 2, RingSize: 4096})
	ts, err := NewUDPServer(s, "127.0.0.1:0", UDPServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	want := make([]int64, eng.Shards())
	for i := 0; i < n; i++ {
		u := core.Update{SourceID: fmt.Sprintf("s-%d", i), Values: []float64{1}, Bootstrap: true}
		want[eng.ShardFor(u.SourceID)]++
		ts.processDatagram(updateDatagram(t, &u), netip.AddrPort{})
	}
	eng.Quiesce()
	if want[0] == 0 || want[1] == 0 {
		t.Fatalf("the ids split %v over the shards; the test needs both", want)
	}
	for _, sh := range engineBlock(t, s).PerShard {
		if sh.Applied != want[sh.Shard] || sh.Dropped != 0 {
			t.Errorf("shard %d applied %d (shed %d), want %d", sh.Shard, sh.Applied, sh.Dropped, want[sh.Shard])
		}
	}
}

// streamSeriesText is the /metrics text of the eight per-stream families.
func streamSeriesText(t *testing.T, s *Server) string {
	t.Helper()
	var b, out strings.Builder
	if err := s.Telemetry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		for _, m := range streamColumns {
			if strings.HasPrefix(line, m.Name+"{") || strings.HasPrefix(line, "# HELP "+m.Name+" ") || strings.HasPrefix(line, "# TYPE "+m.Name+" ") {
				out.WriteString(line)
			}
		}
	}
	return out.String()
}

// streamSeriesGolden is what the server that fed per-stream registry
// instruments on every apply (59d793a) printed for seriesScenario, with
// the NIS and whiteness digits re-recorded when a gap's covariance steps
// came to be settled in closed form (kalman/owed.go), and the whiteness
// digits again when ρ₁ came to be kept as exponentially weighted sums
// (kalman/adaptive.go).
const streamSeriesGolden = `# HELP dkf_server_updates_total Updates folded into the server filter.
# TYPE dkf_server_updates_total counter
dkf_server_updates_total{source="a"} 24
dkf_server_updates_total{source="b"} 1
dkf_server_updates_total{source="c"} 0
# HELP dkf_server_suppressed_total Source-suppressed steps, inferred from update sequence gaps.
# TYPE dkf_server_suppressed_total counter
dkf_server_suppressed_total{source="a"} 22
dkf_server_suppressed_total{source="b"} 0
dkf_server_suppressed_total{source="c"} 0
# HELP dkf_server_recv_bytes_total Update payload bytes received (wire-cost model).
# TYPE dkf_server_recv_bytes_total counter
dkf_server_recv_bytes_total{source="a"} 504
dkf_server_recv_bytes_total{source="b"} 21
dkf_server_recv_bytes_total{source="c"} 0
# HELP dkf_server_seq Latest reading index folded into the stream's filter.
# TYPE dkf_server_seq gauge
dkf_server_seq{source="a"} 45
dkf_server_seq{source="b"} 5
dkf_server_seq{source="c"} 0
# HELP dkf_stream_nis Normalized innovation squared of the latest update.
# TYPE dkf_stream_nis gauge
dkf_stream_nis{source="a"} 1.0237167938117724
dkf_stream_nis{source="b"} 0
dkf_stream_nis{source="c"} 0
# HELP dkf_stream_whiteness Lag-1 autocorrelation of recent innovations (near 0 when healthy).
# TYPE dkf_stream_whiteness gauge
dkf_stream_whiteness{source="a"} 0.457647068747026
dkf_stream_whiteness{source="b"} 0
dkf_stream_whiteness{source="c"} 0
# HELP dkf_stream_healthy 1 while the innovation sequence is white; 0 flags a mis-modeled stream.
# TYPE dkf_stream_healthy gauge
dkf_stream_healthy{source="a"} 1
dkf_stream_healthy{source="b"} 1
dkf_stream_healthy{source="c"} 1
# HELP dkf_server_suppression_ratio Fraction of source readings suppressed: suppressed / (updates + suppressed).
# TYPE dkf_server_suppression_ratio gauge
dkf_server_suppression_ratio{source="a"} 0.4782608695652174
dkf_server_suppression_ratio{source="b"} 0
dkf_server_suppression_ratio{source="c"} 0
`

// seriesScenario feeds s three streams: a with gaps and a full innovation
// window, b only bootstrapped, c registered and silent.
func seriesScenario(t *testing.T, s *Server) {
	t.Helper()
	mustRegister(t, s, stream.Query{ID: "qa", SourceID: "a", Delta: 1, Model: "linear"})
	mustRegister(t, s, stream.Query{ID: "qb", SourceID: "b", Delta: 1, Model: "constant"})
	mustRegister(t, s, stream.Query{ID: "qc", SourceID: "c", Delta: 1, Model: "constant"})
	for _, id := range []string{"a", "b"} {
		if _, err := s.InstallFor(id); err != nil {
			t.Fatal(err)
		}
	}
	seq := 0
	for i := 0; i < 24; i++ {
		u := core.Update{SourceID: "a", Seq: seq, Time: float64(seq), Values: []float64{3*math.Sin(float64(i)) + float64(i)}, Bootstrap: i == 0}
		if err := s.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
		seq += 1 + i%3
	}
	if err := s.HandleUpdate(core.Update{SourceID: "b", Seq: 5, Time: 5, Values: []float64{2}, Bootstrap: true}); err != nil {
		t.Fatal(err)
	}
}

// assertSeriesMatchStats checks every stream's own series against Stats.
func assertSeriesMatchStats(t *testing.T, label string, s *Server) {
	t.Helper()
	for _, st := range s.Stats() {
		for name, want := range map[string]float64{
			"dkf_server_updates_total":    float64(st.Updates),
			"dkf_server_suppressed_total": float64(st.Suppressed),
			"dkf_server_recv_bytes_total": float64(st.Bytes),
			"dkf_server_seq":              float64(st.Seq),
			"dkf_stream_nis":              st.NIS,
			"dkf_stream_whiteness":        st.Whiteness,
		} {
			if got, ok := s.Telemetry().Get(name, telemetry.L("source", st.SourceID)); !ok || got != want {
				t.Errorf("%s: %s{source=%q} = %v (present %v), Stats says %v", label, name, st.SourceID, got, ok, want)
			}
		}
	}
}

// TestStreamSeriesAtScrape pins the per-stream series now that they are
// read from the stream records at scrape time: the same text as when the
// apply fed registry instruments, the roll-up past the cap as a sum of
// records, and agreement with Stats after a recovery and a migration with
// no fix-up of registry state.
func TestStreamSeriesAtScrape(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{Sync: wal.SyncOff}
	s, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	seriesScenario(t, s)
	if got := streamSeriesText(t, s); got != streamSeriesGolden {
		t.Fatalf("per-stream series text changed:\n%s\nwant:\n%s", got, streamSeriesGolden)
	}
	assertSeriesMatchStats(t, "live", s)

	// A migration target and a recovered server hold the same counts.
	target := NewServer(testCatalog())
	payload, _, err := s.SnapshotSource("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := target.RestoreSource(payload, 2); err != nil {
		t.Fatal(err)
	}
	assertSeriesMatchStats(t, "migrated", target)
	if got, _ := target.Telemetry().Get("dkf_server_updates_total", telemetry.L("source", "a")); got != 24 {
		t.Fatalf("migrated stream exports %v updates, want 24", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(testCatalog(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertSeriesMatchStats(t, "recovered", reopened)
	if got, _ := reopened.Telemetry().Get("dkf_server_updates_total", telemetry.L("source", "a")); got != 24 {
		t.Fatalf("recovered stream exports %v updates, want 24", got)
	}

	// Past the cap: no series of their own, one roll-up that sums them.
	big := NewServer(testCatalog())
	for i := 0; i < DefaultSourceMetricLimit+3; i++ {
		id := fmt.Sprintf("s%04d", i)
		mustRegister(t, big, stream.Query{ID: "q/" + id, SourceID: id, Delta: 1, Model: "constant"})
	}
	over := []string{fmt.Sprintf("s%04d", DefaultSourceMetricLimit), fmt.Sprintf("s%04d", DefaultSourceMetricLimit+1), fmt.Sprintf("s%04d", DefaultSourceMetricLimit+2)}
	for i, id := range over {
		feed(t, big, id, 2*i+1)
	}
	feed(t, big, "s0000", 4)
	var want Stats
	for _, st := range big.Stats() {
		for _, id := range over {
			if st.SourceID == id {
				want.Updates, want.Suppressed, want.Bytes, want.Seq = want.Updates+st.Updates, want.Suppressed+st.Suppressed, want.Bytes+st.Bytes, max(want.Seq, st.Seq)
			}
		}
	}
	for name, v := range map[string]int{"dkf_server_updates_total": want.Updates, "dkf_server_suppressed_total": want.Suppressed, "dkf_server_recv_bytes_total": want.Bytes, "dkf_server_seq": want.Seq} {
		if got, ok := big.Telemetry().Get(name, telemetry.L("source", "_other")); !ok || got != float64(v) {
			t.Errorf("%s{source=\"_other\"} = %v (present %v), the streams past the cap sum to %v", name, got, ok, v)
		}
	}
	if want.Updates != 9 {
		t.Fatalf("streams past the cap report %d updates, fed 9", want.Updates)
	}
	if _, ok := big.Telemetry().Get("dkf_server_updates_total", telemetry.L("source", over[0])); ok {
		t.Fatalf("stream %s past the cap has a series of its own", over[0])
	}
	if got, _ := big.Telemetry().Get("dkf_server_updates_total", telemetry.L("source", "s0000")); got != 4 {
		t.Fatalf("stream within the cap exports %v updates, want 4", got)
	}
}
