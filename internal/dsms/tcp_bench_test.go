package dsms

import (
	"fmt"
	"sync"
	"testing"

	"streamkf/internal/stream"
	"streamkf/internal/trace"
)

// benchReading builds a reading whose value jumps by 1 each step, so a
// "constant" model with a tiny δ transmits every reading — the benchmark
// measures pure wire cost per update, not suppression.
func benchReading(seq int, base float64) stream.Reading {
	return stream.Reading{Seq: seq, Time: float64(seq), Values: []float64{base + float64(seq)}}
}

// benchTCPIngestSingle is the single-agent loopback ingest benchmark
// body: one update encoded, shipped, decoded, and folded into the
// server filter per iteration, with the server's telemetry on — the
// alloc budget is the instrumented cost. Shared between
// BenchmarkTCPIngest and the TestTCPIngestAllocBudget regression gate.
func benchTCPIngestSingle(b *testing.B) {
	catalog := testCatalog()
	s := NewServer(catalog)
	if err := s.Register(stream.Query{ID: "q-bench", SourceID: "bench", Delta: 1e-6, Model: "constant"}); err != nil {
		b.Fatal(err)
	}
	ts, err := NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ts.Serve()
	defer ts.Close()
	agent, err := DialSource(ts.Addr(), "bench", catalog)
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

// benchTCPIngestTraced is benchTCPIngestSingle with end-to-end tracing
// on: server flight recorders, the negotiated trace frame ahead of
// every update, and the agent-local recorder. TestTCPIngestTracedAllocBudget
// holds it to the untraced budget: tracing rides the ingest path
// without allocating.
func benchTCPIngestTraced(b *testing.B) {
	catalog := testCatalog()
	s := NewServer(catalog)
	s.EnableTracing(trace.Options{})
	if err := s.Register(stream.Query{ID: "q-bench", SourceID: "bench", Delta: 1e-6, Model: "constant"}); err != nil {
		b.Fatal(err)
	}
	ts, err := NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ts.Serve()
	defer ts.Close()
	agent, err := DialSourceOptions(ts.Addr(), "bench", catalog, DialOptions{Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	defer agent.Close()
	if !agent.wireTrace {
		b.Fatal("trace feature not negotiated")
	}

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

// BenchmarkTCPIngest measures the loopback source→server update path.
func BenchmarkTCPIngest(b *testing.B) {
	b.Run("single", benchTCPIngestSingle)
	b.Run("traced", benchTCPIngestTraced)

	for _, workers := range []int{4} {
		b.Run(fmt.Sprintf("parallel/%d", workers), func(b *testing.B) {
			catalog := testCatalog()
			s := NewServer(catalog)
			for w := 0; w < workers; w++ {
				id := fmt.Sprintf("bench-%d", w)
				if err := s.Register(stream.Query{ID: "q-" + id, SourceID: id, Delta: 1e-6, Model: "constant"}); err != nil {
					b.Fatal(err)
				}
			}
			ts, err := NewTCPServer(s, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go ts.Serve()
			defer ts.Close()
			agents := make([]*RemoteAgent, workers)
			for w := 0; w < workers; w++ {
				a, err := DialSource(ts.Addr(), fmt.Sprintf("bench-%d", w), catalog)
				if err != nil {
					b.Fatal(err)
				}
				agents[w] = a
				defer a.Close()
			}

			per := b.N / workers
			if per == 0 {
				per = 1
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					a := agents[w]
					for i := 0; i < per; i++ {
						if _, err := a.Offer(benchReading(i, float64(w)*1e6)); err != nil {
							errs <- err
							return
						}
					}
					errs <- a.Drain()
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
