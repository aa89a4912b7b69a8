package cluster

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamkf/internal/dsms"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
	"streamkf/internal/trace"
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

	// Without ?format=json it is the same document, and the router serves
	// no /statusz: the fleet view is /clusterz.
	code, hdr, body = adminGet(t, admin.Addr(), "/clusterz")
	var again Clusterz
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" || json.Unmarshal([]byte(body), &again) != nil ||
		again.Status != "ok" || len(again.Shards) != 2 {
		t.Fatalf("/clusterz = %d %q %.80q", code, hdr.Get("Content-Type"), body)
	}
	if code, _, _ = adminGet(t, admin.Addr(), "/statusz"); code != http.StatusNotFound {
		t.Fatalf("router /statusz status %d, want 404", code)
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

// TestTracezStreamIDWithSlash: a stream id may contain "/"
// (stream.Query.Validate asks only that it be non-empty). The router asks
// the owning shard for /tracez/stream/plant%2F3, and both admin surfaces
// must read the escaped segment as the one id plant/3; a raw "/" is not
// an id.
func TestTracezStreamIDWithSlash(t *testing.T) {
	const id = "plant/3"
	catalog := testCatalog()
	s := dsms.NewServer(catalog)
	s.EnableTracing(trace.Options{})
	shardAddr := startShard(t, s, 0).Addr()
	shardAdmin, err := dsms.ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shardAdmin.Close()
	r, err := NewRouter("127.0.0.1:0", []string{shardAddr}, Options{Trace: true, ShardAdmins: []string{shardAdmin.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve()
	t.Cleanup(func() { r.Close() })
	if err := r.RegisterQuery(stream.Query{ID: "q", SourceID: id, Delta: 1, Model: "linear"}); err != nil {
		t.Fatal(err)
	}
	routerAdmin, err := ServeAdmin(r, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer routerAdmin.Close()
	agent, err := dsms.DialSourceOptions(r.Addr(), id, catalog, dsms.DialOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := agent.Run(stream.NewSliceSource(gen.Ramp(20, 0, 2, 0, 1))); err != nil {
		t.Fatal(err)
	}

	path := "/tracez/stream/" + url.PathEscape(id)
	if code, _, body := adminGet(t, shardAdmin.Addr(), path); code != http.StatusOK || !strings.Contains(body, `"source_id": "plant/3"`) {
		t.Fatalf("shard GET %s = %d %s", path, code, body)
	}
	ct, err := r.TraceStream(id)
	if err != nil || ct.ShardTrace == nil || ct.Error != "" || ct.ShardTrace.SourceID != id {
		t.Fatalf("router TraceStream(%q) = %+v, %v; want the shard half spliced in", id, ct, err)
	}
	if code, _, body := adminGet(t, routerAdmin.Addr(), path); code != http.StatusOK || !strings.Contains(body, `"shard_trace"`) {
		t.Fatalf("router GET %s = %d %s", path, code, body)
	}
	for _, admin := range []string{shardAdmin.Addr(), routerAdmin.Addr()} {
		if code, _, _ := adminGet(t, admin, "/tracez/stream/plant/3"); code != http.StatusBadRequest {
			t.Errorf("GET /tracez/stream/plant/3 on %s = %d, want 400", admin, code)
		}
	}
}

// mountedPaths reads the patterns a Go source file mounts with
// mux.HandleFunc, so a walk over them covers an endpoint added later.
func mountedPaths(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		lit, isLit := call.Args[0].(*ast.BasicLit)
		if ok && isLit && sel.Sel.Name == "HandleFunc" && lit.Kind == token.STRING {
			p, _ := strconv.Unquote(lit.Value)
			paths = append(paths, p)
		}
		return true
	})
	return paths
}

// TestAdminServesDataOnly walks every path dsms.ServeAdmin and
// cluster.ServeAdmin mount, on a shard with a self-monitor behind a
// router, and checks that each answers JSON or plain text (Prometheus
// exposition, the health probe's one word, an error line), never HTML.
// The standard library's /debug/pprof/ is the one exception and is
// skipped.
func TestAdminServesDataOnly(t *testing.T) {
	r, servers := startClusterAdmins(t, 1, Options{})
	m, err := servers[0].EnableSelfMon(dsms.SelfMonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.Tick(time.Now())
	shardAdmin, err := dsms.ServeAdmin(servers[0], "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shardAdmin.Close()
	routerAdmin, err := ServeAdmin(r, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer routerAdmin.Close()
	for file, addr := range map[string]string{"../admin.go": shardAdmin.Addr(), "admin.go": routerAdmin.Addr()} {
		walked := 0
		for _, p := range mountedPaths(t, file) {
			if strings.HasPrefix(p, "/debug/pprof/") {
				continue
			}
			if strings.HasSuffix(p, "/") {
				p += "nope"
			}
			for _, path := range []string{p, p + "?verbose=1"} {
				code, hdr, body := adminGet(t, addr, path)
				switch ct := hdr.Get("Content-Type"); {
				case ct == "application/json":
					if !json.Valid([]byte(body)) {
						t.Errorf("%s GET %s: %d, invalid JSON %.80q", file, path, code, body)
					}
				case strings.HasPrefix(ct, "text/plain"):
				default:
					t.Errorf("%s GET %s: %d Content-Type %q, want JSON or plain text", file, path, code, ct)
				}
			}
			walked++
		}
		if walked < 6 {
			t.Errorf("%s: walked %d paths; the parse found too few mounts", file, walked)
		}
	}
}
