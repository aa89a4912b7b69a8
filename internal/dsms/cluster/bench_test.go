package cluster

import (
	"fmt"
	"testing"

	"streamkf/internal/dsms"
	"streamkf/internal/stream"
	"streamkf/internal/trace"
)

// benchReading constructs a never-suppressed reading: the "constant"
// model with a tiny δ transmits everything, so the benchmarks measure
// pure forwarding cost, not suppression.
func benchReading(seq int, base float64) stream.Reading {
	return stream.Reading{Seq: seq, Time: float64(seq), Values: []float64{base + float64(seq)}}
}

// benchShards brings up n in-memory shards for a benchmark.
func benchShards(b *testing.B, n int) []string {
	b.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s := dsms.NewServer(testCatalog())
		s.SetShardInfo(i, 0)
		ts, err := dsms.NewTCPServer(s, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go ts.Serve()
		b.Cleanup(func() { ts.Close() })
		addrs[i] = ts.Addr()
	}
	return addrs
}

// benchRouterForwardDirect is the baseline: the same ingest workload
// against a single shard with no router in the path.
func benchRouterForwardDirect(b *testing.B) {
	catalog := testCatalog()
	s := dsms.NewServer(catalog)
	if err := s.Register(stream.Query{ID: "q-bench", SourceID: "bench", Delta: 1e-6, Model: "constant"}); err != nil {
		b.Fatal(err)
	}
	ts, err := dsms.NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ts.Serve()
	b.Cleanup(func() { ts.Close() })
	agent, err := dsms.DialSource(ts.Addr(), "bench", catalog)
	if err != nil {
		b.Fatal(err)
	}
	defer agent.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent, err := agent.Offer(benchReading(i, 0))
		if err != nil {
			b.Fatal(err)
		}
		if !sent {
			b.Fatal("reading unexpectedly suppressed")
		}
	}
	if err := agent.Drain(); err != nil {
		b.Fatal(err)
	}
}

// benchRouterForwardRouted sends the identical workload through a
// 2-shard router: update decode, route lookup, forward envelope,
// upstream write, forward-ack fan-back, downstream ack relay — the
// whole hop. Shared with TestRouterForwardAllocBudget, which gates its
// allocation count against routerForwardAllocBudget.
func benchRouterForwardRouted(b *testing.B) {
	catalog := testCatalog()
	addrs := benchShards(b, 2)
	r, err := NewRouter("127.0.0.1:0", addrs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	go r.Serve()
	b.Cleanup(func() { r.Close() })
	if err := r.RegisterQuery(stream.Query{ID: "q-bench", SourceID: "bench", Delta: 1e-6, Model: "constant"}); err != nil {
		b.Fatal(err)
	}
	agent, err := dsms.DialSource(r.Addr(), "bench", catalog)
	if err != nil {
		b.Fatal(err)
	}
	defer agent.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent, err := agent.Offer(benchReading(i, 0))
		if err != nil {
			b.Fatal(err)
		}
		if !sent {
			b.Fatal("reading unexpectedly suppressed")
		}
	}
	if err := agent.Drain(); err != nil {
		b.Fatal(err)
	}
}

// benchRouterForwardRoutedTraced is the routed workload with the full
// observability plane on: traced shards, traced router, traced agent.
// Every update carries a hop-extended trace frame the router decodes,
// re-stamps and records — and the path must still not allocate beyond
// the untraced budget (the recorder is a preallocated seqlock ring,
// the hop rewrite reuses the writer's scratch).
func benchRouterForwardRoutedTraced(b *testing.B) {
	catalog := testCatalog()
	addrs := make([]string, 2)
	for i := 0; i < 2; i++ {
		s := dsms.NewServer(testCatalog())
		s.SetShardInfo(i, 0)
		s.EnableTracing(trace.Options{})
		ts, err := dsms.NewTCPServer(s, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go ts.Serve()
		b.Cleanup(func() { ts.Close() })
		addrs[i] = ts.Addr()
	}
	r, err := NewRouter("127.0.0.1:0", addrs, Options{Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	go r.Serve()
	b.Cleanup(func() { r.Close() })
	if err := r.RegisterQuery(stream.Query{ID: "q-bench", SourceID: "bench", Delta: 1e-6, Model: "constant"}); err != nil {
		b.Fatal(err)
	}
	agent, err := dsms.DialSourceOptions(r.Addr(), "bench", catalog, dsms.DialOptions{Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	defer agent.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent, err := agent.Offer(benchReading(i, 0))
		if err != nil {
			b.Fatal(err)
		}
		if !sent {
			b.Fatal("reading unexpectedly suppressed")
		}
	}
	if err := agent.Drain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRouterForward measures the per-update cost of the router
// hop: "direct" is one agent straight into a shard, "routed" is the
// same agent through a 2-shard dkf-router, "routed-traced" adds
// cross-hop trace propagation on top. The differences are the
// forwarding and tracing taxes.
func BenchmarkRouterForward(b *testing.B) {
	b.Run("direct", benchRouterForwardDirect)
	b.Run("routed", benchRouterForwardRouted)
	b.Run("routed-traced", benchRouterForwardRoutedTraced)
}

// BenchmarkClusterAggregateAnswer measures a cross-shard aggregate
// point read: the router fans a sub-query RPC to every shard holding
// members, merges the exact-sum partials, and rounds once. Scaling the
// shard count scales the RPC fan-out.
func BenchmarkClusterAggregateAnswer(b *testing.B) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards/%d", shards), func(b *testing.B) {
			catalog := testCatalog()
			addrs := benchShards(b, shards)
			r, err := NewRouter("127.0.0.1:0", addrs, Options{})
			if err != nil {
				b.Fatal(err)
			}
			go r.Serve()
			b.Cleanup(func() { r.Close() })

			const nSources = 8
			const steps = 100
			ids := make([]string, nSources)
			for i := range ids {
				ids[i] = fmt.Sprintf("node-%d", i)
			}
			agg := dsms.AggregateQuery{ID: "grid", SourceIDs: ids, Func: dsms.AggSum, Delta: 5, Model: "linear"}
			if err := r.RegisterAggregate(agg); err != nil {
				b.Fatal(err)
			}
			for i, id := range ids {
				a, err := dsms.DialSource(r.Addr(), id, catalog)
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < steps; s++ {
					if _, err := a.Offer(benchReading(s, float64(i)*100)); err != nil {
						b.Fatal(err)
					}
				}
				if err := a.Drain(); err != nil {
					b.Fatal(err)
				}
				a.Close()
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.AnswerAggregate("grid", steps-1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// routerForwardAllocBudget is the allocs/op ceiling of one update
// through a 2-shard router, agent to ack — the same 1 as direct TCP
// ingest, the benchmark's own reading (the router keeps no payload),
// traced or not.
const routerForwardAllocBudget = 1

// TestRouterForwardAllocBudget gates the routed ingest path on
// routerForwardAllocBudget — the router hop must not silently grow
// per-update garbage.
func TestRouterForwardAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	res := testing.Benchmark(benchRouterForwardRouted)
	if got := res.AllocsPerOp(); got > routerForwardAllocBudget {
		t.Fatalf("routed ingest allocates %d/op, budget %d/op", got, routerForwardAllocBudget)
	}
}

// TestRouterForwardTracedAllocBudget gates the traced relay: turning
// on cross-hop trace propagation must not add a single steady-state
// allocation over the untraced routed path — the traced run is held to
// the same routerForwardAllocBudget.
func TestRouterForwardTracedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	res := testing.Benchmark(benchRouterForwardRoutedTraced)
	if got := res.AllocsPerOp(); got > routerForwardAllocBudget {
		t.Fatalf("traced relay allocates %d/op, untraced budget %d/op", got, routerForwardAllocBudget)
	}
}
