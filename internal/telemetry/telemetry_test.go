package telemetry

import (
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	for i := 0; i < 100; i++ {
		c.Inc()
	}
	c.Add(23)
	if got := c.Value(); got != 123 {
		t.Fatalf("Value = %d, want 123", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g.Set(1)
	g.SetInt(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h.Observe(1)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram has observations")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("Value = %d, want %d", got, goroutines*per)
	}
}

// TestHotPathZeroAlloc pins the instrumentation contract: recording into
// any instrument must not allocate. The striped counter's shard pick
// must not force its stack probe to escape.
func TestHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_counter", "")
	g := reg.Gauge("t_gauge", "")
	h := reg.Histogram("t_hist", "")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(4.2)
		h.Observe(1234)
	}); n != 0 {
		t.Fatalf("hot-path instrumentation allocates %v per op, want 0", n)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("Value = %v, want 3.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Bucket index is bits.Len64: 0 -> bucket 0, 1 -> 1, 2..3 -> 2,
	// 4..7 -> 3, etc.
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(1000) // bits.Len64(1000) = 10
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 1006 {
		t.Fatalf("Sum = %d, want 1006", s.Sum)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 2 || s.Counts[10] != 1 {
		t.Fatalf("bucket counts wrong: %v", s.Counts[:12])
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("median bucket bound = %d, want 3", q)
	}
	if q := s.Quantile(1); q != 1023 {
		t.Fatalf("max bucket bound = %d, want 1023", q)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help", L("source", "s1"))
	b := reg.Counter("x_total", "help", L("source", "s1"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := reg.Counter("x_total", "help", L("source", "s2"))
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "help")
}

// TestWritePrometheusGolden locks the exposition format byte for byte:
// HELP/TYPE headers once per family, label escaping, cumulative
// histogram buckets at power-of-two bounds with +Inf, _sum and _count.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	u := reg.Counter("dkf_updates_total", "Updates folded into the server filter.", L("source", "s1"))
	u.Add(7)
	reg.Counter("dkf_updates_total", "Updates folded into the server filter.", L("source", "s2")).Add(3)
	reg.Gauge("dkf_nis", "Latest normalized innovation squared.", L("source", `quo"te`)).Set(2.5)
	reg.GaugeFunc("dkf_ratio", "Derived ratio.", func() float64 { return 0.25 })
	h := reg.Histogram("dkf_latency_ns", "Latency in nanoseconds.")
	h.Observe(1) // bucket 1, le 1
	h.Observe(1)
	h.Observe(6) // bucket 3, le 7
	h.Observe(0) // bucket 0, le 0

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dkf_updates_total Updates folded into the server filter.
# TYPE dkf_updates_total counter
dkf_updates_total{source="s1"} 7
dkf_updates_total{source="s2"} 3
# HELP dkf_nis Latest normalized innovation squared.
# TYPE dkf_nis gauge
dkf_nis{source="quo\"te"} 2.5
# HELP dkf_ratio Derived ratio.
# TYPE dkf_ratio gauge
dkf_ratio 0.25
# HELP dkf_latency_ns Latency in nanoseconds.
# TYPE dkf_latency_ns histogram
dkf_latency_ns_bucket{le="0"} 1
dkf_latency_ns_bucket{le="1"} 3
dkf_latency_ns_bucket{le="7"} 4
dkf_latency_ns_bucket{le="+Inf"} 4
dkf_latency_ns_sum 8
dkf_latency_ns_count 4
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestScrapeDuringWrites exercises the snapshot-without-stopping-writers
// contract under the race detector.
func TestScrapeDuringWrites(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h_ns", "")
	const writers, per = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetInt(int64(i))
				h.Observe(int64(i % 4096))
				// Creation racing with scrape must also be safe.
				reg.Counter("c_total", "", L("w", string(rune('a'+w))))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "c_total") {
			t.Fatal("scrape lost a metric family")
		}
		reg.SeriesSnapshot()
	}
	if v, ok := reg.Get("c_total"); !ok || v != writers*per {
		t.Fatalf("Get(c_total) = %v, %v; want %d", v, ok, writers*per)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError, "WARN": slog.LevelWarn,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel(loud) did not error")
	}
}

func TestNopLogger(t *testing.T) {
	l := NopLogger()
	l.Info("dropped", "k", "v") // must not panic or write
	if l.Enabled(nil, slog.LevelError) {
		t.Fatal("nop logger claims to be enabled")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewCounter()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			h.Observe(i)
			i++
		}
	})
}
