package dsms

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
)

// adminGet fetches a path from the admin server without connection
// reuse, so goroutine-leak checks see a quiet state after Close.
func adminGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// streamDirect drives n ramp readings through an in-process agent into s.
func streamDirect(t *testing.T, s *Server, sourceID string, n int) {
	t.Helper()
	cfg, err := s.InstallFor(sourceID)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error { return s.HandleUpdate(u) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Run(stream.NewSliceSource(gen.Ramp(n, 0, 2, 0.05, 17))); err != nil {
		t.Fatal(err)
	}
}

func TestAdminEndpoints(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 0.05, Model: "linear"})
	streamDirect(t, s, "walk", 300)

	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	code, body := adminGet(t, admin.Addr(), "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = adminGet(t, admin.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`dkf_server_updates_total{source="walk"}`,
		`dkf_server_suppressed_total{source="walk"}`,
		`dkf_server_suppression_ratio{source="walk"}`,
		`dkf_stream_nis{source="walk"}`,
		`dkf_stream_healthy{source="walk"} 1`,
		`dkf_build_info{version="dev"`,
		"# TYPE dkf_uptime_seconds gauge",
		"dkf_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = adminGet(t, admin.Addr(), "/streamz")
	if code != http.StatusOK {
		t.Fatalf("/streamz status %d", code)
	}
	var z Streamz
	if err := json.Unmarshal([]byte(body), &z); err != nil {
		t.Fatalf("/streamz is not a JSON Streamz document: %v\n%s", err, body)
	}
	if z.Durable || z.TraceEnabled || z.WAL != nil {
		t.Fatalf("/streamz durability flags wrong for in-memory server: %+v", z)
	}
	if len(z.Streams) != 1 {
		t.Fatalf("/streamz reported %d sources, want 1", len(z.Streams))
	}
	st := z.Streams[0]
	if st.SourceID != "walk" || st.Model != "linear" || st.Delta != 0.05 {
		t.Fatalf("/streamz identity fields wrong: %+v", st)
	}
	if st.Updates == 0 || st.Suppressed == 0 || st.SuppressionPct <= 0 {
		t.Fatalf("/streamz suppression accounting empty: %+v", st)
	}
	if !st.NISValid || !st.HealthReady {
		t.Fatalf("/streamz health not populated after 300 readings: %+v", st)
	}

	// /tracez answers (empty) even with tracing off, so dashboards can
	// always probe it.
	code, body = adminGet(t, admin.Addr(), "/tracez")
	if code != http.StatusOK {
		t.Fatalf("/tracez status %d", code)
	}
	var tz struct {
		Enabled bool `json:"enabled"`
		Count   int  `json:"count"`
	}
	if err := json.Unmarshal([]byte(body), &tz); err != nil {
		t.Fatalf("/tracez is not JSON: %v\n%s", err, body)
	}
	if tz.Enabled || tz.Count != 0 {
		t.Fatalf("/tracez with tracing off = %+v, want disabled and empty", tz)
	}
	if code, _ = adminGet(t, admin.Addr(), "/tracez?kind=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/tracez?kind=bogus status %d, want 400", code)
	}
	if code, _ = adminGet(t, admin.Addr(), "/tracez/stream/nope"); code != http.StatusNotFound {
		t.Fatalf("/tracez/stream/nope status %d, want 404", code)
	}
}

// TestAdminDurableScrape opens a durable server and asserts the WAL
// instruments surface on /metrics and the durability fields on
// /streamz: wiring `wal.NewInstruments` into the server registry is
// only real if a scrape can see it.
func TestAdminDurableScrape(t *testing.T) {
	s, err := Open(testCatalog(), t.TempDir(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 0.05, Model: "linear"})
	streamDirect(t, s, "walk", 200)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	code, body := adminGet(t, admin.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE streamkf_wal_records_appended_total counter",
		"# TYPE streamkf_wal_segments gauge",
		"streamkf_wal_checkpoints_total 1",
		"streamkf_wal_fsyncs_total",
		"# TYPE streamkf_wal_fsync_duration_nanos histogram",
		`dkf_server_updates_total{source="walk"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics on a durable server missing %q", want)
		}
	}

	code, body = adminGet(t, admin.Addr(), "/streamz")
	if code != http.StatusOK {
		t.Fatalf("/streamz status %d", code)
	}
	var z Streamz
	if err := json.Unmarshal([]byte(body), &z); err != nil {
		t.Fatalf("/streamz: %v\n%s", err, body)
	}
	if !z.Durable {
		t.Fatal("/streamz does not mark the server durable")
	}
	if z.WAL == nil {
		t.Fatal("/streamz missing the wal section on a durable server")
	}
	if z.WAL.Segments < 1 || z.WAL.Checkpoints != 1 {
		t.Fatalf("/streamz wal accounting wrong: %+v", z.WAL)
	}
	if z.WAL.CheckpointAgeSeconds < 0 {
		t.Fatalf("checkpoint age unset after an explicit checkpoint: %+v", z.WAL)
	}
}

// TestAdminScrapeUnderLoad hammers /metrics and /streamz while a TCP
// agent streams — the scrape-never-stops-writers contract under -race.
func TestAdminScrapeUnderLoad(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 3, Model: "linear"})
	ts := startServer(t, s)
	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	agent, err := DialSource(ts.Addr(), "walk", catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := agent.Run(stream.NewSliceSource(gen.Ramp(2000, 0, 2, 0.05, 17))); err != nil {
			t.Errorf("Run: %v", err)
		}
	}()

	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/streamz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if code, _ := adminGet(t, admin.Addr(), path); code != http.StatusOK {
					t.Errorf("GET %s: status %d", path, code)
					return
				}
			}
		}(path)
	}
	wg.Wait()
	<-done

	// After the stream drains, the scrape must agree with Stats.
	_, body := adminGet(t, admin.Addr(), "/metrics")
	st := s.Stats()[0]
	if want := fmt.Sprintf("dkf_server_updates_total{source=\"walk\"} %d", st.Updates); !strings.Contains(body, want) {
		t.Fatalf("final scrape missing %q", want)
	}
}

// TestAdminPprofDuringIngest is the acceptance end-to-end: a live
// server ingesting over TCP serves a CPU profile without disturbing the
// stream.
func TestAdminPprofDuringIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("1s CPU profile")
	}
	catalog := testCatalog()
	s := NewServer(catalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 0.5, Model: "linear"})
	ts := startServer(t, s)
	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	agent, err := DialSource(ts.Addr(), "walk", catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		data := gen.Ramp(500, 0, 2, 0.5, 17)
		for seq := 0; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			r := data[seq%len(data)]
			r.Seq = seq
			if _, err := agent.Offer(r); err != nil {
				return
			}
		}
	}()

	code, body := adminGet(t, admin.Addr(), "/debug/pprof/profile?seconds=1")
	close(stop)
	<-done
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/profile = %d, %d bytes", code, len(body))
	}
	if err := agent.Drain(); err != nil {
		t.Fatalf("stream broke while profiling: %v", err)
	}
}

// TestAdminCloseNoGoroutineLeak pins the clean-shutdown contract: Close
// waits for the serve goroutine and leaves nothing behind.
func TestAdminCloseNoGoroutineLeak(t *testing.T) {
	s := NewServer(testCatalog())
	before := runtime.NumGoroutine()
	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := adminGet(t, admin.Addr(), "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if err := admin.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + admin.Addr() + "/healthz"); err == nil {
		t.Fatal("admin listener still accepting after Close")
	}
	// HTTP internals wind down asynchronously; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked across admin lifecycle: before %d, after %d", before, after)
	}
}

// TestLastN pins the one bounded ring behind the finding log and the
// router's event log: nothing before the first Put, both read orders, a
// limit, wrap-around keeping the newest, and the degenerate capacity of
// one.
func TestLastN(t *testing.T) {
	r := NewLastN[int](3)
	if got := r.Last(0, true); len(got) != 0 || r.Total() != 0 {
		t.Fatalf("an empty ring reads %v, total %d", got, r.Total())
	}
	check := func(limit int, newestFirst bool, want ...int) {
		t.Helper()
		if got := r.Last(limit, newestFirst); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("after %d puts Last(%d, %v) = %v, want %v", r.Total(), limit, newestFirst, got, want)
		}
	}
	r.Put(1)
	r.Put(2)
	check(0, true, 2, 1)
	check(0, false, 1, 2)
	check(1, true, 2)
	check(5, false, 1, 2)
	for v := 3; v <= 7; v++ { // wraps twice
		r.Put(v)
	}
	check(0, true, 7, 6, 5)
	check(0, false, 5, 6, 7)
	check(2, false, 6, 7)
	if r.Total() != 7 {
		t.Errorf("Total = %d after 7 puts", r.Total())
	}
	one := NewLastN[string](1)
	one.Put("a")
	one.Put("b")
	if got := one.Last(0, false); len(got) != 1 || got[0] != "b" {
		t.Errorf("a ring of one holds %v, want the newest", got)
	}
}
