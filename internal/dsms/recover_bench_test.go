package dsms

import (
	"fmt"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/stream"
	"streamkf/internal/wal"
)

// BenchmarkRecover20k times recovery at scale (ROADMAP 5(b)): a data
// directory of 20,000 registered constant streams, a checkpoint cut after
// 10,000 updates and a log tail of 10,000 more, left as a crash leaves it
// (no Close). The updates go to the first 5,000 streams, four each, so
// the tail holds two non-bootstrap steps per stream. Each iteration opens
// the directory and closes only the log, which leaves it as it was. It
// reports recover_ms, the time of one Open, and replayed_records, the
// records that Open replayed after restoring the checkpoint.
func BenchmarkRecover20k(b *testing.B) {
	const streams, active, updates = 20000, 5000, 20000
	dir := b.TempDir()
	s, err := Open(testCatalog(), dir, DurabilityOptions{Sync: wal.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%05d", i)
		if err := s.Register(stream.Query{ID: "q-" + id, SourceID: id, Delta: 1, Model: "constant"}); err != nil {
			b.Fatal(err)
		}
	}
	for k := 0; k < updates; k++ {
		if k == updates/2 {
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		id, seq := fmt.Sprintf("s%05d", k%active), k/active
		if seq == 0 {
			if _, err := s.InstallFor(id); err != nil {
				b.Fatal(err)
			}
		}
		u := core.Update{SourceID: id, Seq: seq, Time: float64(seq), Values: []float64{float64(k)}, Bootstrap: seq == 0}
		if err := s.HandleUpdate(u); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.db.log.Close(); err != nil { // the crash: no final checkpoint
		b.Fatal(err)
	}

	var elapsed time.Duration
	var replayed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		r, err := Open(testCatalog(), dir, DurabilityOptions{})
		elapsed += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		replayed = r.db.ins.RecoveredRecords.Value()
		if err := r.db.log.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(elapsed.Microseconds())/1e3/float64(b.N), "recover_ms")
	b.ReportMetric(replayed, "replayed_records")
}
