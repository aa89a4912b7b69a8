package dsms

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/stream"
)

// concurrencyReadings builds a deterministic single-attribute stream for
// source i: a slow ramp plus a phase-shifted sine, noisy enough that a
// tight delta forces a healthy mix of updates and suppressions.
func concurrencyReadings(i, n int) []stream.Reading {
	vals := make([]float64, n)
	for k := 0; k < n; k++ {
		vals[k] = 0.1*float64(k) + 2*math.Sin(0.3*float64(k)+float64(i))
	}
	return stream.FromValues(vals, 1)
}

// TestConcurrentIngestAndQuery exercises the sharded locking: N sources
// ingest from N goroutines while other goroutines hammer Answer, Stats,
// SourceIDs and HistoryStats on all streams. Run under -race this covers
// the topology-RLock + per-source-mutex scheme end to end.
func TestConcurrentIngestAndQuery(t *testing.T) {
	const (
		nSources = 8
		nSteps   = 300
	)
	s := NewServer(testCatalog())
	for i := 0; i < nSources; i++ {
		q := stream.Query{
			ID:       fmt.Sprintf("q%d", i),
			SourceID: fmt.Sprintf("s%d", i),
			Delta:    0.5,
			Model:    "linear",
		}
		if err := s.Register(q); err != nil {
			t.Fatal(err)
		}
		if err := s.EnableHistory(q.SourceID); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 2*nSources)
	sent := make([]core.SourceStats, nSources)

	// Writers: one goroutine per source, driving a full agent (mirror
	// filter + suppression) whose transport is a direct HandleUpdate call.
	for i := 0; i < nSources; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			srcID := fmt.Sprintf("s%d", i)
			cfg, err := s.InstallFor(srcID)
			if err != nil {
				errc <- err
				return
			}
			agent, err := NewAgent(cfg, core.TransportFunc(s.HandleUpdate))
			if err != nil {
				errc <- err
				return
			}
			if err := agent.Run(stream.NewSliceSource(concurrencyReadings(i, nSteps))); err != nil {
				errc <- fmt.Errorf("source %s: %w", srcID, err)
			}
			sent[i] = agent.Stats()
		}(i)
	}

	// Readers: one goroutine per source, querying every stream at seq 0
	// (never advancing any filter past its ingest position) plus the
	// cross-stream accessors.
	for i := 0; i < nSources; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				qid := fmt.Sprintf("q%d", (i+r)%nSources)
				// Before the bootstrap lands this legitimately errors;
				// only data races (caught by -race) are failures here.
				s.Answer(qid, 0)
				s.Stats()
				s.HistoryStats(fmt.Sprintf("s%d", (i+r)%nSources))
			}
		}(i)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Every source must have ingested every update its agent sent. The
	// server's seq rests at the last transmitted update, and a query at
	// the final index answers from there without moving it.
	stats := s.Stats()
	if len(stats) != nSources {
		t.Fatalf("Stats reports %d sources, want %d", len(stats), nSources)
	}
	for i := 0; i < nSources; i++ {
		if _, err := s.Answer(fmt.Sprintf("q%d", i), nSteps-1); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range s.Stats() {
		if st.Updates == 0 || st.Updates != stats[i].Updates || st.Seq != stats[i].Seq {
			t.Errorf("source %s: %d updates at seq %d after the queries, %d at %d before", st.SourceID, st.Updates, st.Seq, stats[i].Updates, stats[i].Seq)
		}
	}
	for i, agent := range sent {
		id := fmt.Sprintf("s%d", i)
		for _, st := range stats {
			if st.SourceID == id && (st.Updates != agent.Updates || agent.Readings != nSteps) {
				t.Errorf("source %s ingested %d updates, its agent sent %d of %d readings", id, st.Updates, agent.Updates, agent.Readings)
			}
		}
	}
}
