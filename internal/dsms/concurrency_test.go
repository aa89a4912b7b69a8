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
				s.SourceIDs()
				s.HistoryStats(fmt.Sprintf("s%d", (i+r)%nSources))
			}
		}(i)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Every source must have ingested its whole stream. The server's seq
	// rests at the last transmitted update (suppressed tail readings are
	// advanced lazily), so query each stream at the final index to pull
	// every filter forward, then check.
	stats := s.Stats()
	if len(stats) != nSources {
		t.Fatalf("Stats reports %d sources, want %d", len(stats), nSources)
	}
	for _, st := range stats {
		if st.Updates == 0 {
			t.Errorf("source %s ingested no updates", st.SourceID)
		}
	}
	for i := 0; i < nSources; i++ {
		if _, err := s.Answer(fmt.Sprintf("q%d", i), nSteps-1); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range s.Stats() {
		if st.Seq != nSteps-1 {
			t.Errorf("source %s at seq %d, want %d", st.SourceID, st.Seq, nSteps-1)
		}
	}
}

// TestStepAllAdvancesAllStreams checks the batch advance: after ingest
// stops, AdvanceAll must bring every stream's prediction forward to
// each successive target index.
func TestStepAllAdvancesAllStreams(t *testing.T) {
	const nSources = 5
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
		cfg, err := s.InstallFor(q.SourceID)
		if err != nil {
			t.Fatal(err)
		}
		agent, err := NewAgent(cfg, core.TransportFunc(s.HandleUpdate))
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Run(stream.NewSliceSource(concurrencyReadings(i, 50))); err != nil {
			t.Fatal(err)
		}
	}

	for _, target := range []int{100, 150, 250, 900} {
		advanced := s.AdvanceAll(target)
		if advanced != nSources {
			t.Fatalf("AdvanceAll(%d) advanced %d sources, want %d", target, advanced, nSources)
		}
		for _, st := range s.Stats() {
			if st.Seq != target {
				t.Fatalf("source %s at seq %d, want %d", st.SourceID, st.Seq, target)
			}
		}
		// A second call at the same target is a no-op.
		if again := s.AdvanceAll(target); again != 0 {
			t.Fatalf("repeat AdvanceAll advanced %d sources, want 0", again)
		}
	}
}

// TestStepAllConcurrentWithQueries runs AdvanceAll from several
// goroutines while readers query; under -race this pins its per-source
// locking against the query path.
func TestStepAllConcurrentWithQueries(t *testing.T) {
	const nSources = 4
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
		cfg, err := s.InstallFor(q.SourceID)
		if err != nil {
			t.Fatal(err)
		}
		agent, err := NewAgent(cfg, core.TransportFunc(s.HandleUpdate))
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Run(stream.NewSliceSource(concurrencyReadings(i, 20))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				s.AdvanceAll(20 + r)
				if _, err := s.Answer(fmt.Sprintf("q%d", (g+r)%nSources), 0); err != nil {
					// All sources bootstrapped before this point.
					t.Errorf("Answer: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for _, st := range s.Stats() {
		if st.Seq < 69 {
			t.Errorf("source %s at seq %d, want >= 69", st.SourceID, st.Seq)
		}
	}
}
