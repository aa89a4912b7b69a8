package dsms

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
)

// adminGetResp is adminGet plus response headers, for the endpoints
// whose HTTP semantics (status codes, cache headers) are themselves
// under test.
func adminGetResp(t *testing.T, addr, path string) (*http.Response, string) {
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
	return resp, string(body)
}

// TestHealthzSemantics pins the probe's HTTP contract: 200 for ok and
// degraded, 503 for unhealthy, text status by default, full JSON under
// ?verbose=1, and Cache-Control: no-store on every admin endpoint.
func TestHealthzSemantics(t *testing.T) {
	crit := 1.0
	s := NewServer(testCatalog())
	m, err := s.EnableSelfMon(SelfMonOptions{
		Every: time.Second, Recover: 3,
		Signals: []SelfSignal{
			{Name: "crit_sig", Model: "constant", Delta: 1, Critical: true,
				Read: func(*SelfMonitor) (float64, bool) { return crit, true }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	clk := newSelfClock(time.Second)
	for i := 0; i < 3; i++ {
		clk.tick(m)
	}

	// ok: 200, plain text, and no-store everywhere.
	for _, path := range []string{"/healthz", "/metrics", "/statusz", "/streamz", "/tracez"} {
		resp, _ := adminGetResp(t, admin.Addr(), path)
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s Cache-Control = %q, want no-store", path, cc)
		}
	}
	resp, body := adminGetResp(t, admin.Addr(), "/healthz")
	if resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}

	// unhealthy: 503 with the status in the body, and machine-readable
	// reasons under ?verbose=1.
	crit = 100
	clk.tick(m)
	resp, body = adminGetResp(t, admin.Addr(), "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || body != "unhealthy\n" {
		t.Fatalf("/healthz while unhealthy = %d %q, want 503 unhealthy", resp.StatusCode, body)
	}
	resp, body = adminGetResp(t, admin.Addr(), "/healthz?verbose=1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz?verbose=1 status = %d, want 503", resp.StatusCode)
	}
	var h HealthStatus
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("verbose healthz is not JSON: %v\n%s", err, body)
	}
	if h.Status != "unhealthy" || len(h.Reasons) == 0 || h.Reasons[0].Signal != "crit_sig" || !h.Reasons[0].Critical {
		t.Fatalf("verbose healthz document wrong: %+v", h)
	}
	if h.UptimeSeconds <= 0 {
		t.Fatalf("uptime missing from healthz: %+v", h)
	}

	// degraded still answers 200: the server is impaired, not down, and
	// a load balancer must not evict it.
	warnOnly := HealthStatus{Status: "degraded"}
	_ = warnOnly // documented semantics; exercised via the overload e2e below
	for i := 0; i < 30 && s.Health().Status != "ok"; i++ {
		clk.tick(m)
	}
	resp, body = adminGetResp(t, admin.Addr(), "/healthz")
	if resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz after recovery = %d %q, want 200 ok", resp.StatusCode, body)
	}
}

// TestHealthzOverloadHTTP is the acceptance e2e at the HTTP layer: a
// real ring-shed burst flips /healthz ok → degraded (HTTP 200 both —
// degraded must not trip load-balancer eviction) with shed_rate in the
// verbose reasons, then recovers to ok.
func TestHealthzOverloadHTTP(t *testing.T) {
	s := NewServer(testCatalog())
	e := s.StartEngine(EngineOptions{Shards: 1, RingSize: 8})
	defer e.Close()
	m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Second, RateWindow: 5 * time.Second, Recover: 2})
	if err != nil {
		t.Fatal(err)
	}
	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	clk := newSelfClock(time.Second)
	for i := 0; i < 5; i++ {
		clk.tick(m)
	}
	if resp, body := adminGetResp(t, admin.Addr(), "/healthz"); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("pre-overload /healthz = %d %q", resp.StatusCode, body)
	}

	release := stallShard(t, s)
	p := e.Producer()
	u := &core.Update{SourceID: "burst", Seq: 1, Time: 1, Values: []float64{1}, Bootstrap: true}
	for i := 0; i < 200; i++ {
		tryOffer(p, 0, u)
	}
	p.Flush()
	release()

	clk.tick(m)
	resp, body := adminGetResp(t, admin.Addr(), "/healthz")
	if resp.StatusCode != http.StatusOK || body != "degraded\n" {
		t.Fatalf("/healthz under shed = %d %q, want 200 degraded", resp.StatusCode, body)
	}
	_, body = adminGetResp(t, admin.Addr(), "/healthz?verbose=1")
	var h HealthStatus
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("verbose healthz: %v\n%s", err, body)
	}
	found := false
	for _, r := range h.Reasons {
		if r.Signal == "shed_rate" && r.Kind == "delta_violation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("verbose reasons missing shed_rate: %+v", h.Reasons)
	}

	// /streamz surfaces the same burst as a first-class shed rate.
	_, body = adminGetResp(t, admin.Addr(), "/streamz")
	var z Streamz
	if err := json.Unmarshal([]byte(body), &z); err != nil {
		t.Fatalf("/streamz: %v\n%s", err, body)
	}
	if z.Engine == nil || z.Engine.ShedRatePerSec == nil || *z.Engine.ShedRatePerSec <= 0 {
		t.Fatalf("/streamz engine shed rate not populated under shed: %+v", z.Engine)
	}

	recovered := false
	for i := 0; i < 50; i++ {
		clk.tick(m)
		if resp, body := adminGetResp(t, admin.Addr(), "/healthz"); resp.StatusCode == http.StatusOK && body == "ok\n" {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("/healthz never recovered; health = %+v", s.Health())
	}
}

// TestStatuszDashboard checks the /statusz document in both modes: with
// self-monitoring on it carries the verdict, every signal's state (δ,
// model, updates, suppressed, active, whiteness) and the retained
// findings newest first; off, it is the health document alone.
func TestStatuszDashboard(t *testing.T) {
	val := 3.0
	s := NewServer(testCatalog())
	m, err := s.EnableSelfMon(SelfMonOptions{
		Every: time.Second, Recover: 3,
		Signals: []SelfSignal{
			{Name: "demo_sig", Help: "scripted demo signal", Model: "constant", Delta: 1,
				Read: func(*SelfMonitor) (float64, bool) { return val, true }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	clk := newSelfClock(time.Second)
	for i := 0; i < 5; i++ {
		clk.tick(m)
	}
	val = 30
	clk.tick(m) // a finding
	val = 300
	clk.tick(m) // and a newer one

	resp, body := adminGetResp(t, admin.Addr(), "/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/statusz Content-Type = %q", ct)
	}
	var doc Statusz
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statusz is not a Statusz document: %v\n%s", err, body)
	}
	if h := doc.Health; h.Status != "degraded" || h.UptimeSeconds <= 0 || len(h.Reasons) != 1 || h.Reasons[0].Signal != "demo_sig" || h.Signals["demo_sig"] != 300 {
		t.Fatalf("/statusz health = %+v", h)
	}
	if len(doc.Signals) != 1 {
		t.Fatalf("/statusz signals = %+v, want demo_sig alone", doc.Signals)
	}
	sig := doc.Signals[0]
	if sig.Name != "demo_sig" || sig.Help != "scripted demo signal" || sig.Model != "constant" || sig.Delta != 1 ||
		!sig.Fed || sig.Value != 300 || !sig.Active || sig.Updates != 3 || sig.Suppressed != 4 {
		t.Fatalf("/statusz signal = %+v", sig)
	}
	if len(doc.Findings) != 2 || doc.Findings[0].Value != 300 || doc.Findings[1].Value != 30 ||
		doc.Findings[0].Kind != "delta_violation" || doc.Findings[0].TicksAgo != 0 || doc.Findings[1].TicksAgo != 1 {
		t.Fatalf("/statusz findings, newest first = %+v", doc.Findings)
	}
	// The keys a reader of the document finds, as it spells them.
	for _, want := range []string{`"name": "demo_sig"`, `"delta": 1`, `"model": "constant"`, `"updates": 3`,
		`"suppressed": 4`, `"active": true`, `"whiteness_bad": false`, `"residual"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/statusz missing %s", want)
		}
	}

	// Without self-monitoring the document is the health document alone.
	bare := NewServer(testCatalog())
	admin2, err := ServeAdmin(bare, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin2.Close()
	resp, body = adminGetResp(t, admin2.Addr(), "/statusz")
	doc = Statusz{}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz without selfmon = %d (%v):\n%s", resp.StatusCode, err, body)
	}
	if doc.Health.Status != "ok" || doc.Signals != nil || doc.Findings != nil || strings.Contains(body, `"signals"`) {
		t.Fatalf("/statusz without selfmon should be the health document alone:\n%s", body)
	}
}

// TestStatuszMetricszScrapeUnderLoad hammers the status endpoints while a
// TCP agent streams and the self-monitor's real ticker runs — the
// scrape-never-stops-writers contract under -race, the signals' family
// reads included.
func TestStatuszMetricszScrapeUnderLoad(t *testing.T) {
	catalog := testCatalog()
	s := NewServer(catalog)
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 3, Model: "linear"})
	ts := startServer(t, s)
	m, err := s.EnableSelfMon(SelfMonOptions{Every: 5 * time.Millisecond, RateWindow: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()
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
	for _, path := range []string{"/statusz", "/healthz?verbose=1"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, _ := adminGetResp(t, admin.Addr(), path)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	wg.Wait()
	<-done
}
