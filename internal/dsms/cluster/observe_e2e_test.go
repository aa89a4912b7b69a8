package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
	"streamkf/internal/trace"
)

// chainKinds collects the set of kinds present in a spliced chain.
func chainKinds(events []trace.EventView) map[string]bool {
	out := make(map[string]bool)
	for _, e := range events {
		out[e.Kind] = true
	}
	return out
}

// TestClusterTraceE2EChain is the tentpole acceptance test: a traced
// source streams through the router into a durable traced shard, one
// reading violates δ, and the router's /tracez/stream/{id} must splice
// the router's hop events into the shard's trail — one traceID, one
// causal chain from the source's decision through the router's
// fwd_rx/fwd_tx to the shard's apply and WAL append, closed by the
// router's fwd_ack, with monotonic timestamps end to end.
func TestClusterTraceE2EChain(t *testing.T) {
	const n, spikeAt, spike = 120, 100, 500.0
	catalog := testCatalog()
	shardAddrs := make([]string, 2)
	adminAddrs := make([]string, 2)
	for i := range shardAddrs {
		s, err := dsms.Open(catalog, t.TempDir(), dsms.DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		s.EnableTracing(trace.Options{})
		shardAddrs[i] = startShard(t, s, i).Addr()
		a, err := dsms.ServeAdmin(s, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		adminAddrs[i] = a.Addr()
	}
	r, err := NewRouter("127.0.0.1:0", shardAddrs, Options{Trace: true, ShardAdmins: adminAddrs})
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve()
	t.Cleanup(func() { r.Close() })
	if err := r.RegisterQuery(stream.Query{ID: "q1", SourceID: "walk", Delta: 1, F: 10, Model: "linear"}); err != nil {
		t.Fatal(err)
	}
	admin, err := ServeAdmin(r, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	agent, err := dsms.DialSourceOptions(r.Addr(), "walk", catalog, dsms.DialOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	// A noiseless ramp the linear model locks onto, with one huge spike:
	// after lock-on readings suppress, the spike must transmit.
	data := gen.Ramp(n, 0, 2, 0, 1)
	data[spikeAt].Values[0] += spike
	spikeSeq := int64(data[spikeAt].Seq)
	for _, rd := range data {
		if _, err := agent.Offer(rd); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}

	// The spliced document: the lookup works by query id too.
	code, _, body := adminGet(t, admin.Addr(), "/tracez/stream/q1")
	if code != http.StatusOK {
		t.Fatalf("/tracez/stream/q1 status %d: %s", code, body)
	}
	var ct ClusterStreamTrace
	if err := json.Unmarshal([]byte(body), &ct); err != nil {
		t.Fatalf("/tracez/stream/q1 is not JSON: %v\n%s", err, body)
	}
	if ct.SourceID != "walk" || !ct.Enabled {
		t.Fatalf("spliced document identity wrong: %+v", ct)
	}
	if ct.ShardTrace == nil {
		t.Fatalf("shard trail missing (error %q); federation did not reach %s", ct.Error, ct.ShardAdmin)
	}
	if len(ct.RouterEvents) == 0 {
		t.Fatal("router recorded no forwarding events for a traced stream")
	}

	// The δ-violating reading's chain, end to end under one traceID.
	var spikeEvents []trace.EventView
	var spikeTID int64
	for _, ev := range ct.Chain {
		if ev.Seq == spikeSeq && ev.Kind == "fwd_rx" {
			spikeTID = ev.TraceID
		}
	}
	if spikeTID == 0 {
		t.Fatalf("no fwd_rx for the δ-violating seq %d in the chain", spikeSeq)
	}
	for _, ev := range ct.Chain {
		if ev.TraceID == spikeTID {
			spikeEvents = append(spikeEvents, ev)
		}
	}
	kinds := chainKinds(spikeEvents)
	for _, want := range []string{"decision", "fwd_rx", "fwd_tx", "wire_rx", "apply", "wal", "fwd_ack"} {
		if !kinds[want] {
			t.Errorf("spike chain missing kind %q (have %v)", want, kinds)
		}
	}
	at := make(map[string]int64, len(spikeEvents))
	for _, ev := range spikeEvents {
		at[ev.Kind] = ev.AtUnixNs
	}
	order := []string{"decision", "fwd_rx", "fwd_tx", "apply", "wal", "fwd_ack"}
	for i := 1; i < len(order); i++ {
		if at[order[i-1]] > at[order[i]] {
			t.Errorf("chain timestamps not monotonic: %s@%d after %s@%d",
				order[i-1], at[order[i-1]], order[i], at[order[i]])
		}
	}
	// The chain itself is sorted by timestamp.
	for i := 1; i < len(spikeEvents); i++ {
		if spikeEvents[i-1].AtUnixNs > spikeEvents[i].AtUnixNs {
			t.Errorf("spliced chain out of order at %d: %+v > %+v", i, spikeEvents[i-1], spikeEvents[i])
		}
	}

	// Hop latency histograms saw the traced forwards.
	_, _, metrics := adminGet(t, admin.Addr(), "/metrics")
	for _, stage := range []string{"router", "shard"} {
		re := regexp.MustCompile(fmt.Sprintf(`dkf_router_hop_latency_seconds_count\{stage="%s"\} (\d+)`, stage))
		m := re.FindStringSubmatch(metrics)
		if m == nil || m[1] == "0" {
			t.Errorf("hop histogram stage=%s unobserved on /metrics (match %v)", stage, m)
		}
	}

	// The router's own /tracez lists the forwarding events.
	code, _, body = adminGet(t, admin.Addr(), "/tracez?source=walk&kind=fwd_tx")
	var tz dsms.TracezResponse
	if err := json.Unmarshal([]byte(body), &tz); err != nil || code != http.StatusOK {
		t.Fatalf("/tracez = %d (%v): %s", code, err, body)
	}
	if !tz.Enabled || tz.Count == 0 {
		t.Fatalf("/tracez filtered listing empty: %+v", tz)
	}
}

// TestClusterzVerdictFlip drives one shard of a federated cluster
// through overload and recovery and watches the flip on the router's
// /clusterz: the shard's selfmon verdict must read ok, then degraded
// (with the shed_rate reason federated), then ok again — and the
// rolled-up cluster verdict must follow.
func TestClusterzVerdictFlip(t *testing.T) {
	s := dsms.NewServer(testCatalog())
	e := s.StartEngine(dsms.EngineOptions{Shards: 1, RingSize: 8})
	defer e.Close()
	m, err := s.EnableSelfMon(dsms.SelfMonOptions{
		Every: time.Second, RateWindow: 5 * time.Second, Recover: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := startShard(t, s, 0).Addr()
	sa, err := dsms.ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()

	// A second, untroubled shard: its verdict must stay put while shard
	// 0 flips.
	s2 := dsms.NewServer(testCatalog())
	addr2 := startShard(t, s2, 1).Addr()
	sa2, err := dsms.ServeAdmin(s2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sa2.Close()

	r, err := NewRouter("127.0.0.1:0", []string{addr, addr2}, Options{ShardAdmins: []string{sa.Addr(), sa2.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve()
	t.Cleanup(func() { r.Close() })

	// Synthetic clock, as in the selfmon tests: evenly spaced ticks make
	// the windowed signals deterministic and the test sleep-free.
	now := time.Unix(1_700_000_000, 0)
	tick := func() {
		now = now.Add(time.Second)
		m.Tick(now)
	}
	for i := 0; i < 5; i++ {
		tick()
	}
	if cz := r.Clusterz(); cz.Status != "ok" || cz.Shards[0].Status != "ok" {
		t.Fatalf("pre-overload clusterz = %q (shard 0 %q), want ok", cz.Status, cz.Shards[0].Status)
	}

	// Stall the only shard worker, then slam the ring: Next sheds
	// once the slots fill, driving dkf_engine_ring_dropped_total. The
	// stall is a blocking alert callback, which runs on the worker.
	if err := s.Register(stream.Query{ID: "stall", SourceID: "stall", Delta: 1, Model: "constant"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallFor("stall"); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	if err := s.RegisterAlert(dsms.Alert{ID: "stall", QueryID: "stall"}, func(dsms.AlertEvent) { close(entered); <-release }); err != nil {
		t.Fatal(err)
	}
	p := e.Producer()
	p.Offer(0, &core.Update{SourceID: "stall", Values: []float64{1}, Bootstrap: true})
	<-entered
	u := &core.Update{SourceID: "burst", Seq: 1, Time: 1, Values: []float64{1}, Bootstrap: true}
	for i := 0; i < 200; i++ {
		if slot := p.Next(0); slot != nil {
			vals := slot.Values
			*slot = *u
			slot.Values = append(vals[:0], u.Values...)
			p.Commit(0)
		}
	}
	p.Flush()
	close(release)
	tick()

	cz := r.Clusterz()
	if cz.Status != "degraded" || cz.Shards[0].Status != "degraded" {
		t.Fatalf("overloaded clusterz = %q (shard 0 %q), want degraded", cz.Status, cz.Shards[0].Status)
	}
	if cz.Shards[1].Status != "ok" {
		t.Fatalf("untroubled shard 1 flipped too: %+v", cz.Shards[1])
	}
	found := false
	for _, reason := range cz.Shards[0].Reasons {
		if reason.Signal == "shed_rate" {
			found = true
		}
	}
	if !found {
		t.Fatalf("shed_rate reason not federated: %+v", cz.Shards[0].Reasons)
	}

	// The burst ages out of the rate window; the federated verdict
	// recovers with the shard's.
	recovered := false
	for i := 0; i < 50 && !recovered; i++ {
		tick()
		recovered = s.Health().Status == "ok"
	}
	if !recovered {
		t.Fatalf("shard verdict never recovered; health = %+v", s.Health())
	}
	if cz := r.Clusterz(); cz.Status != "ok" || cz.Shards[0].Status != "ok" {
		t.Fatalf("post-recovery clusterz = %q (shard 0 %q), want ok", cz.Status, cz.Shards[0].Status)
	}
}

// TestClusterObservabilityRaceSmoke scrapes /clusterz and the spliced
// /tracez/stream while a traced 2-shard cluster ingests and migrates
// the stream — the observability plane must never race the data path
// (run under -race in CI).
func TestClusterObservabilityRaceSmoke(t *testing.T) {
	catalog := testCatalog()
	shardAddrs := make([]string, 2)
	adminAddrs := make([]string, 2)
	for i := range shardAddrs {
		s := dsms.NewServer(catalog)
		s.EnableTracing(trace.Options{})
		shardAddrs[i] = startShard(t, s, i).Addr()
		a, err := dsms.ServeAdmin(s, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		adminAddrs[i] = a.Addr()
	}
	r, err := NewRouter("127.0.0.1:0", shardAddrs, Options{Trace: true, ShardAdmins: adminAddrs})
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve()
	t.Cleanup(func() { r.Close() })
	// A tiny δ on the constant model keeps every reading transmitting,
	// so trace traffic flows for the whole run.
	if err := r.RegisterQuery(stream.Query{ID: "q1", SourceID: "walk", Delta: 1e-9, Model: "constant"}); err != nil {
		t.Fatal(err)
	}
	admin, err := ServeAdmin(r, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	agent, err := dsms.DialSourceOptions(r.Addr(), "walk", catalog, dsms.DialOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	const steps = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, rd := range gen.Ramp(steps, 0, 1, 0.2, 7) {
			if _, err := agent.Offer(rd); err != nil {
				return
			}
		}
		agent.Drain()
	}()

	var wg sync.WaitGroup
	for _, path := range []string{"/clusterz?format=json", "/tracez?source=walk", "/tracez/stream/walk", "/eventz", "/metrics", "/healthz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				code, _, body := adminGet(t, admin.Addr(), path)
				if code >= http.StatusInternalServerError {
					t.Errorf("GET %s = %d: %.120s", path, code, body)
				}
			}
		}(path)
	}

	// Migrate the live stream back and forth under the scrape load.
	from := r.Ring().Owner("walk")
	for i := 0; i < 2; i++ {
		target := 1 - from
		if err := r.Migrate("walk", target); err != nil {
			t.Fatalf("migrate %d -> %d: %v", from, target, err)
		}
		from = target
	}

	wg.Wait()
	<-done

	// After the dust settles the event log remembers the migrations.
	_, _, body := adminGet(t, admin.Addr(), "/eventz")
	if !strings.Contains(body, EvMigrationComplete) {
		t.Fatalf("/eventz has no %s after two migrations: %.200s", EvMigrationComplete, body)
	}
}
