package dsms

import (
	"io"
	"net/http"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
)

// TestStatsMatchTelemetryCounters replays a mixed suppressed/sent
// stream and asserts that the agent's node counters, Server.Stats, and
// the telemetry registry all report identical numbers — the counters
// ARE the stats, so the three views cannot drift.
func TestStatsMatchTelemetryCounters(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q1", SourceID: "walk", Delta: 0.5, Model: "linear"})
	cfg, err := s.InstallFor("walk")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error { return s.HandleUpdate(u) }))
	if err != nil {
		t.Fatal(err)
	}

	data := gen.Ramp(400, 0, 2, 0.3, 23)
	// Spike the final reading so it must transmit: every suppressed
	// sequence number then sits between two transmissions, and the
	// server's gap inference accounts for all of them.
	data[len(data)-1].Values[0] += 100
	if err := agent.Run(stream.NewSliceSource(data)); err != nil {
		t.Fatal(err)
	}

	ast := agent.Stats()
	if ast.Updates == 0 || ast.Suppressed == 0 {
		t.Fatalf("replay was not mixed: %+v", ast)
	}
	if ast.Updates+ast.Suppressed != len(data) {
		t.Fatalf("agent counters do not cover the stream: %+v over %d readings", ast, len(data))
	}

	st := s.Stats()[0]
	reg := s.Telemetry()
	src := telemetry.L("source", "walk")
	get := func(name string) int {
		t.Helper()
		v, ok := reg.Get(name, src)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return int(v)
	}

	if st.Updates != ast.Updates {
		t.Errorf("server saw %d updates, agent sent %d", st.Updates, ast.Updates)
	}
	if st.Suppressed != ast.Suppressed {
		t.Errorf("server inferred %d suppressed, agent suppressed %d", st.Suppressed, ast.Suppressed)
	}
	if st.Bytes != ast.BytesSent {
		t.Errorf("server counted %d bytes, agent sent %d", st.Bytes, ast.BytesSent)
	}
	if got := get("dkf_server_updates_total"); got != st.Updates {
		t.Errorf("dkf_server_updates_total = %d, Stats.Updates = %d", got, st.Updates)
	}
	if got := get("dkf_server_suppressed_total"); got != st.Suppressed {
		t.Errorf("dkf_server_suppressed_total = %d, Stats.Suppressed = %d", got, st.Suppressed)
	}
	if got := get("dkf_server_recv_bytes_total"); got != st.Bytes {
		t.Errorf("dkf_server_recv_bytes_total = %d, Stats.Bytes = %d", got, st.Bytes)
	}

	wantRatio := float64(st.Suppressed) / float64(st.Updates+st.Suppressed)
	if ratio, ok := reg.Get("dkf_server_suppression_ratio", src); !ok || ratio != wantRatio {
		t.Errorf("dkf_server_suppression_ratio = %v, want %v", ratio, wantRatio)
	}
	if pct := st.SuppressionPct; pct != 100*wantRatio {
		t.Errorf("Stats.SuppressionPct = %v, want %v", pct, 100*wantRatio)
	}
}

// tcpIngestAllocBudget is the allocs/op ceiling of one update through
// the loopback TCP ingest path, agent to ack — with telemetry on, and
// with full tracing on top: both must ride along for free. The one
// allocation is the benchmark's own (each reading's Values); the path
// from Offer to ack allocates nothing.
const tcpIngestAllocBudget = 1

// TestTCPIngestAllocBudget gates the instrumented TCP ingest path on
// tcpIngestAllocBudget: telemetry must ride along for free.
func TestTCPIngestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	res := testing.Benchmark(benchTCPIngestSingle)
	if got := res.AllocsPerOp(); got > tcpIngestAllocBudget {
		t.Fatalf("TCP ingest with telemetry allocates %d/op, budget %d/op", got, tcpIngestAllocBudget)
	}
}

// TestTCPIngestTracedAllocBudget gates the fully traced TCP ingest path
// — server flight recorders, negotiated trace frames, agent recorder —
// on the same tcpIngestAllocBudget: tracing must also ride along for
// free.
func TestTCPIngestTracedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	res := testing.Benchmark(benchTCPIngestTraced)
	if got := res.AllocsPerOp(); got > tcpIngestAllocBudget {
		t.Fatalf("traced TCP ingest allocates %d/op, budget %d/op", got, tcpIngestAllocBudget)
	}
}

// BenchmarkScrape20k is what observing a 20,000-stream server costs: one
// /metrics exposition, and one pass of a bulk reader (the history ring's
// capture: collect the tables, read every series). Either walks the
// handle table once.
func BenchmarkScrape20k(b *testing.B) {
	s, ids, _, _ := bootAll(b, "constant", 20000)
	for seq := 1; seq <= 17; seq++ { // a ready whiteness tap on every stream
		for _, id := range ids {
			if err := s.HandleUpdate(core.Update{SourceID: id, Seq: seq, Time: float64(seq), Values: []float64{float64(seq % 3)}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.Telemetry().WritePrometheus(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAdmin20k is what the admin plane costs a 20,000-stream server
// running -selfmon, streams registered before the engine and the monitor
// as dkf-server does: one status document (what a router's fleet view
// fetches per shard) over HTTP, with the response size, and one
// self-monitoring tick.
func BenchmarkAdmin20k(b *testing.B) {
	s, ids, _, _ := bootAll(b, "constant", 20000)
	e := s.StartEngine(EngineOptions{})
	defer e.Close()
	m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	clk := newSelfClock(time.Second)
	for seq := 1; seq <= 5; seq++ { // rates to report
		for _, id := range ids[:100] {
			if err := s.HandleUpdate(core.Update{SourceID: id, Seq: seq, Time: float64(seq), Values: []float64{1}}); err != nil {
				b.Fatal(err)
			}
		}
		clk.tick(m)
	}
	admin, err := ServeAdmin(s, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer admin.Close()
	for _, path := range []string{"/healthz?verbose=1"} {
		b.Run(path, func(b *testing.B) {
			var size int64
			for i := 0; i < b.N; i++ {
				resp, err := http.Get("http://" + admin.Addr() + path)
				if err != nil {
					b.Fatal(err)
				}
				size, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			b.ReportMetric(float64(size), "B/response")
		})
	}
	b.Run("tick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clk.tick(m)
		}
	})
}
