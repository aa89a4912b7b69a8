package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamkf/internal/dsms"
)

// adminGet fetches a path from an admin server without connection
// reuse, so goroutine-leak checks see a quiet state after Close.
func adminGet(t *testing.T, addr, path string) (int, http.Header, string) {
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
	return resp.StatusCode, resp.Header, string(body)
}

// startClusterAdmins brings up n shards with their own admin servers
// behind a router that knows the admin addresses — the full federated
// topology every observability test needs.
func startClusterAdmins(t *testing.T, n int, opts Options) (*Router, []*dsms.Server) {
	t.Helper()
	servers := make([]*dsms.Server, n)
	addrs := make([]string, n)
	admins := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i] = dsms.NewServer(testCatalog())
		addrs[i] = startShard(t, servers[i], i).Addr()
		a, err := dsms.ServeAdmin(servers[i], "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		admins[i] = a.Addr()
	}
	opts.ShardAdmins = admins
	r, err := NewRouter("127.0.0.1:0", addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve()
	t.Cleanup(func() { r.Close() })
	return r, servers
}

// TestRouterAdminEndpoints is the router admin golden scrape: every
// endpoint answers, /metrics carries the expected metric families
// (build identity, per-shard forwards, hop histograms, topology event
// counters), and every response forbids caching.
func TestRouterAdminEndpoints(t *testing.T) {
	r, _ := startClusterAdmins(t, 2, Options{})
	admin, err := ServeAdmin(r, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	code, hdr, body := adminGet(t, admin.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if got := hdr.Get("Cache-Control"); got != "no-store" {
		t.Fatalf("/metrics Cache-Control = %q, want no-store", got)
	}
	for _, want := range []string{
		`dkf_build_info{version=`,
		"# TYPE dkf_uptime_seconds gauge",
		`dkf_router_forwarded_total{shard="0"}`,
		`dkf_router_forwarded_total{shard="1"}`,
		"# TYPE dkf_router_forward_latency_nanos histogram",
		"# TYPE dkf_router_hop_latency_seconds histogram",
		`dkf_router_hop_latency_seconds_count{stage="router"}`,
		`dkf_router_hop_latency_seconds_count{stage="shard"}`,
		"dkf_router_upstream_conns 2",
		`dkf_router_topology_events_total{kind="shard_connect"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, _, body = adminGet(t, admin.Addr(), "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, _, body = adminGet(t, admin.Addr(), "/clusterz?format=json")
	if code != http.StatusOK {
		t.Fatalf("/clusterz status %d", code)
	}
	var cz Clusterz
	if err := json.Unmarshal([]byte(body), &cz); err != nil {
		t.Fatalf("/clusterz is not a JSON Clusterz document: %v\n%s", err, body)
	}
	if cz.Status != "ok" || len(cz.Shards) != 2 {
		t.Fatalf("/clusterz = %+v, want ok with 2 shards", cz)
	}
	for _, sh := range cz.Shards {
		if !sh.Connected || sh.Status != "ok" {
			t.Fatalf("shard %d not federated: %+v", sh.Shard, sh)
		}
	}

	code, _, body = adminGet(t, admin.Addr(), "/clusterz")
	if code != http.StatusOK || !strings.Contains(body, "DKF cluster fleet") {
		t.Fatalf("/clusterz HTML = %d %.80q", code, body)
	}
	code, _, body = adminGet(t, admin.Addr(), "/statusz")
	if code != http.StatusOK || !strings.Contains(body, "DKF router status") {
		t.Fatalf("/statusz = %d %.80q", code, body)
	}

	code, _, body = adminGet(t, admin.Addr(), "/eventz")
	if code != http.StatusOK {
		t.Fatalf("/eventz status %d", code)
	}
	var ez eventzResponse
	if err := json.Unmarshal([]byte(body), &ez); err != nil {
		t.Fatalf("/eventz is not JSON: %v\n%s", err, body)
	}
	if ez.Total < 2 || ez.Count != len(ez.Events) {
		t.Fatalf("/eventz accounting wrong after 2 shard connects: %+v", ez)
	}
	if ez.Events[0].Kind != EvShardConnect || ez.Events[0].At == 0 {
		t.Fatalf("/eventz newest event not a stamped shard_connect: %+v", ez.Events[0])
	}
	code, _, body = adminGet(t, admin.Addr(), "/eventz?limit=1")
	if err := json.Unmarshal([]byte(body), &ez); err != nil || code != http.StatusOK || ez.Count != 1 {
		t.Fatalf("/eventz?limit=1 = %d %+v (%v)", code, ez, err)
	}
	if code, _, _ = adminGet(t, admin.Addr(), "/eventz?limit=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/eventz?limit=bogus status %d, want 400", code)
	}

	// /tracez answers (empty) even with tracing off, so dashboards can
	// always probe it.
	code, _, body = adminGet(t, admin.Addr(), "/tracez")
	if code != http.StatusOK {
		t.Fatalf("/tracez status %d", code)
	}
	var tz dsms.TracezResponse
	if err := json.Unmarshal([]byte(body), &tz); err != nil {
		t.Fatalf("/tracez is not JSON: %v\n%s", err, body)
	}
	if tz.Enabled || tz.Count != 0 {
		t.Fatalf("/tracez with tracing off = %+v, want disabled and empty", tz)
	}
	if code, _, _ = adminGet(t, admin.Addr(), "/tracez?kind=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/tracez?kind=bogus status %d, want 400", code)
	}
	if code, _, _ = adminGet(t, admin.Addr(), "/tracez/stream/nope"); code != http.StatusNotFound {
		t.Fatalf("/tracez/stream/nope status %d, want 404", code)
	}
	if code, _, _ = adminGet(t, admin.Addr(), "/tracez/stream/"); code != http.StatusBadRequest {
		t.Fatalf("/tracez/stream/ status %d, want 400", code)
	}
}

// TestClusterzAdminDegraded covers the federation failure modes: no
// admin endpoint configured, an unreachable one and one that streams a
// body without end all degrade the cluster verdict without failing — or
// hanging — the scrape.
func TestClusterzAdminDegraded(t *testing.T) {
	r, _ := startCluster(t, 2, Options{})
	cz := r.Clusterz()
	if cz.Status != "degraded" {
		t.Fatalf("unconfigured admins: cluster status %q, want degraded", cz.Status)
	}
	for _, sh := range cz.Shards {
		if sh.Status != "unknown" || sh.Error == "" {
			t.Fatalf("shard %d without admin: %+v, want unknown with error", sh.Shard, sh)
		}
	}

	// Port 1 on loopback refuses immediately: the poll fails fast and
	// the shard reports unreachable.
	r2, _ := startCluster(t, 1, Options{ShardAdmins: []string{"127.0.0.1:1"}})
	cz = r2.Clusterz()
	if cz.Status != "degraded" || cz.Shards[0].Status != "unreachable" {
		t.Fatalf("unreachable admin: %+v, want degraded/unreachable", cz)
	}

	// An endpoint that opens a valid status document and never closes it:
	// the fetch stops at its limit and says so, instead of decoding a
	// prefix or reading until the client's timeout.
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"status":"ok","pad":"`)
		for pad := strings.Repeat("x", 64<<10); ; {
			if _, err := io.WriteString(w, pad); err != nil {
				return
			}
		}
	}))
	defer endless.Close()
	admin := strings.TrimPrefix(endless.URL, "http://")
	var doc dsms.HealthStatus
	err := fetchJSON(admin, "/healthz?verbose=1", &doc)
	if want := fmt.Sprintf("exceeds the %d-byte limit", maxAdminBody); err == nil || !strings.Contains(err.Error(), want) || doc.Status != "" {
		t.Fatalf("endless body: fetchJSON = %v (decoded %+v), want an error naming the limit: %q", err, doc, want)
	}
	r3, _ := startCluster(t, 1, Options{ShardAdmins: []string{admin}})
	cz = r3.Clusterz()
	if sh := cz.Shards[0]; cz.Status != "degraded" || sh.Status != "unreachable" || !strings.Contains(sh.Error, "limit") {
		t.Fatalf("endless admin body: %+v, want degraded/unreachable with the limit in the row's error", cz)
	}
}
