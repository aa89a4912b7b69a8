package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/stream"
	"streamkf/internal/wal"
)

// meteredTransport counts what the fleet view's fetches cost: requests
// sent and response body bytes read.
type meteredTransport struct {
	requests, bytes atomic.Int64
}

type meteredBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (m *meteredTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	m.requests.Add(1)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = meteredBody{resp.Body, &m.bytes}
	}
	return resp, err
}

// bigShard opens a durable shard with n bootstrapped streams, one
// checkpoint taken and self-monitoring ticked past its first rates, behind
// a TCP front and an admin endpoint.
func bigShard(tb testing.TB, index, n int) (s *dsms.Server, addr, admin string) {
	tb.Helper()
	s, err := dsms.Open(testCatalog(), tb.TempDir(), dsms.DurabilityOptions{Sync: wal.SyncOff})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	u := core.Update{Values: []float64{1}, Bootstrap: true}
	for i := 0; i < n; i++ {
		u.SourceID = fmt.Sprintf("shard%d-%05d", index, i)
		if err := s.Register(stream.Query{ID: "q/" + u.SourceID, SourceID: u.SourceID, Delta: 1, Model: "constant"}); err != nil {
			tb.Fatal(err)
		}
		if _, err := s.InstallFor(u.SourceID); err != nil {
			tb.Fatal(err)
		}
		if err := s.HandleUpdate(u); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	m, err := s.EnableSelfMon(dsms.SelfMonOptions{Every: time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	for seq := 1; seq <= 3; seq++ { // 50 updates a tick: an ingest rate to federate
		for i := 0; i < 50; i++ {
			id := fmt.Sprintf("shard%d-%05d", index, i)
			if err := s.HandleUpdate(core.Update{SourceID: id, Seq: seq, Time: float64(seq), Values: []float64{float64(seq)}}); err != nil {
				tb.Fatal(err)
			}
		}
		now = now.Add(time.Second)
		m.Tick(now)
	}
	s.SetShardInfo(index, 0)
	ts, err := dsms.NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go ts.Serve()
	tb.Cleanup(func() { ts.Close() })
	a, err := dsms.ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { a.Close() })
	return s, ts.Addr(), a.Addr()
}

// bigFleet is a router over two bigShards whose admin fetches are metered.
func bigFleet(tb testing.TB, n int) (*Router, []*dsms.Server, []string, *meteredTransport) {
	tb.Helper()
	servers, addrs, admins := make([]*dsms.Server, 2), make([]string, 2), make([]string, 2)
	for i := range servers {
		servers[i], addrs[i], admins[i] = bigShard(tb, i, n)
	}
	r, err := NewRouter("127.0.0.1:0", addrs, Options{ShardAdmins: admins})
	if err != nil {
		tb.Fatal(err)
	}
	go r.Serve()
	tb.Cleanup(func() { r.Close() })
	meter := &meteredTransport{}
	adminClient.Transport = meter
	tb.Cleanup(func() { adminClient.Transport = nil })
	return r, servers, admins, meter
}

// TestClusterzAtScale is the fleet view over shards the size the
// benchmark runs: two durable shards of 20,000 streams each. One
// Clusterz costs each shard one request and a few hundred bytes — not a
// scrape of every series and every stream — still knows the checkpoint
// age, and says of each shard what the shard's own status document says.
func TestClusterzAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 40,000 durable streams")
	}
	r, _, admins, meter := bigFleet(t, 20000)
	cz := r.Clusterz()
	if req, b := meter.requests.Load(), meter.bytes.Load(); req != 2 || b > 2*8<<10 {
		t.Errorf("one Clusterz over two shards made %d requests and read %d bytes, want one request and at most 8 KB per shard", req, b)
	}
	if cz.Status != "ok" || len(cz.Shards) != 2 {
		t.Fatalf("clusterz = %+v, want ok over 2 shards", cz)
	}
	for i, sh := range cz.Shards {
		_, _, body := adminGet(t, admins[i], "/healthz?verbose=1")
		var own dsms.HealthStatus
		if err := json.Unmarshal([]byte(body), &own); err != nil {
			t.Fatalf("shard %d status document: %v\n%s", i, err, body)
		}
		if sh.WALCheckpointAgeSeconds < 0 || own.WALCheckpointAgeSeconds < 0 {
			t.Errorf("shard %d checkpoint age reads %v at the router, %v at the shard, want both known", i, sh.WALCheckpointAgeSeconds, own.WALCheckpointAgeSeconds)
		}
		rate, fed := own.Signals["ingest_rate"]
		if !fed || rate <= 0 || sh.Status != own.Status || sh.IngestRatePerSec != rate ||
			sh.ShedRatePerSec != own.Signals["shed_rate"] || sh.ErrorRatePerSec != own.Signals["wire_error_rate"] {
			t.Errorf("shard %d reads %+v at the router, its own document says %+v", i, sh, own)
		}
	}
}

// BenchmarkClusterz20k is what one fleet view costs over two durable
// 20,000-stream shards: wall time, and requests and response bytes per
// Clusterz (both shards together).
func BenchmarkClusterz20k(b *testing.B) {
	r, _, _, meter := bigFleet(b, 20000)
	r.Clusterz() // connections dialed
	meter.requests.Store(0)
	meter.bytes.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cz := r.Clusterz(); cz.Status != "ok" {
			b.Fatalf("clusterz status %q", cz.Status)
		}
	}
	b.ReportMetric(float64(meter.requests.Load())/float64(b.N), "requests/op")
	b.ReportMetric(float64(meter.bytes.Load())/float64(b.N), "bytes/op")
}
