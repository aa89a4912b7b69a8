package wal

import (
	"testing"
	"time"

	"streamkf/internal/telemetry"
)

// BenchmarkWALAppend measures the append hot path per fsync policy.
// SyncOff isolates the framing + buffered-write cost (the alloc budget
// below pins it at zero allocations); SyncInterval adds only the
// amortized background flush; SyncAlways is dominated by fsync latency
// and is benchmarked separately so the cheap policies stay readable.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 64)
	for _, sync := range []SyncPolicy{SyncOff, SyncInterval, SyncAlways} {
		b.Run(sync.String(), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Sync: sync, SyncEvery: 50 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.SetBytes(int64(recordOverhead + len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(0x11, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendBatchParallel commits batches of 32 update-sized (44 B)
// records from eight goroutines per GOMAXPROCS at once — connection
// handlers outnumber cores — all on one log. fsyncs/op shows the group
// commit under always, where committers queued behind one fsync share
// the next.
func BenchmarkAppendBatchParallel(b *testing.B) {
	const records, size = 32, 44
	for _, sync := range []SyncPolicy{SyncOff, SyncInterval, SyncAlways} {
		b.Run(sync.String(), func(b *testing.B) {
			ins := NewInstruments(telemetry.NewRegistry())
			l, err := Open(b.TempDir(), Options{Sync: sync, Ins: ins})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.SetBytes(records * (recordOverhead + size))
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				arena, batch := make([]byte, records*size), make([][]byte, records)
				for k := range batch {
					batch[k] = arena[k*size : (k+1)*size]
				}
				for pb.Next() {
					if err := l.AppendBatch(0x11, batch); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(ins.Fsyncs.Value())/float64(b.N), "fsyncs/op")
		})
	}
}

// TestWALAppendAllocBudget pins the append path at zero allocations per
// record and per batch under off and interval, the same way the filter
// hot path is pinned: logging an update must never add GC pressure to
// ingest.
func TestWALAppendAllocBudget(t *testing.T) {
	payload := make([]byte, 64)
	batch := [][]byte{payload, payload, payload, payload}
	for _, sync := range []SyncPolicy{SyncOff, SyncInterval} {
		l, err := Open(t.TempDir(), Options{Sync: sync})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for name, op := range map[string]func() error{
			"Append":      func() error { return l.Append(0x11, payload) },
			"AppendBatch": func() error { return l.AppendBatch(0x11, batch) },
		} {
			if err := op(); err != nil { // warm up
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(1000, func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("fsync-%s %s allocates %v/op, want 0", sync, name, n)
			}
		}
	}
}
