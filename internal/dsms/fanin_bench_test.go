package dsms

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/stream"
)

// BenchmarkFanIn is the per-stream yardstick at scale: 10⁵ and 10⁶
// `constant` streams registered, bootstrapped and fed through a UDPServer
// and one UDPBatcher on loopback. It reports
//
//   - heap_B/stream: the heap a registered, installed and bootstrapped
//     stream holds, measured as TestStreamFootprint does (after a GC, the
//     server, its UDP reader and the batcher already up, the ids already
//     made);
//   - setup_ns/stream: wall time from the first registration until the
//     bootstraps are applied, per stream;
//   - readings/s: the rate of fanInRounds rounds per iteration, a round
//     one reading per stream, sent and then drained. A fixed count keeps
//     -benchtime 1x from timing one round's worth of set-up noise.
//
// The transport is benchIngestFanIn's UDP setup: sends are paced against
// the engine's applied count, so no queue on the path overflows into loss;
// a drain waits for 99 % of what was sent to be applied, and so must the
// whole run.
func BenchmarkFanIn(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) { benchFanIn(b, n) })
	}
}

func benchFanIn(b *testing.B, n int) {
	ids, queries := make([]string, n), make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("fan-%07d", i) // 11 bytes
		queries[i] = "q/" + ids[i]
	}
	s := NewServer(testCatalog())
	send, pace, drain := setupFanInUDP(b, s, ids)
	sent := 0
	u := core.Update{Values: make([]float64, 1)}
	round := func(seq int) {
		for i, id := range ids {
			u.SourceID, u.Seq, u.Time, u.Values[0], u.Bootstrap = id, seq, float64(seq), float64(i+seq), seq == 0
			if err := send(i, &u); err != nil {
				b.Fatal(err)
			}
			if sent++; sent&2047 == 0 {
				pace(sent)
			}
		}
		drain(sent)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := range ids {
		if err := s.Register(stream.Query{ID: queries[i], SourceID: ids[i], Delta: 1e-6, Model: "constant"}); err != nil {
			b.Fatal(err)
		}
	}
	round(0)
	setup := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)

	b.ResetTimer()
	start = time.Now()
	for r := 1; r <= b.N*fanInRounds; r++ {
		round(r)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	if applied, losses := engineApplied(s); applied < int64(sent)*99/100 {
		b.Fatalf("only %d/%d updates applied (<99%%): %s", applied, sent, losses)
	}
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(n), "heap_B/stream")
	b.ReportMetric(float64(setup.Nanoseconds())/float64(n), "setup_ns/stream")
	b.ReportMetric(float64(b.N*fanInRounds*n)/elapsed.Seconds(), "readings/s")
}

// fanInRounds is how many rounds one BenchmarkFanIn iteration times.
const fanInRounds = 8

// engineApplied returns how many updates the server's shard workers
// applied, and words where the others they were handed went: refused as
// duplicates (at or below the stream's last applied seq), refused as ahead
// of the stream's bootstrap, or shed by a full ring. Without an engine it
// returns 0 and "no engine".
func engineApplied(s *Server) (applied int64, losses string) {
	z := s.engineStreamz()
	if z == nil {
		return 0, "no engine"
	}
	var dedup, shed int64
	for _, sh := range z.PerShard {
		applied, dedup, shed = applied+sh.Applied, dedup+sh.Dedup, shed+sh.Dropped
	}
	return applied, fmt.Sprintf("dedup %d, pre-bootstrap %d, shed %d", dedup, z.PreBootstrap, shed)
}
