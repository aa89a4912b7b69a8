package history

import (
	"testing"
	"time"

	"streamkf/internal/telemetry"
)

// tick advances a synthetic clock one period per Snapshot, so every
// windowed assertion is exact.
type clock struct {
	t     time.Time
	every time.Duration
}

func newClock(every time.Duration) *clock {
	return &clock{t: time.Unix(1_700_000_000, 0), every: every}
}

func (c *clock) next() time.Time {
	c.t = c.t.Add(c.every)
	return c.t
}

func TestRateCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("updates_total", "")
	r := New(reg, Options{Slots: 16, Every: time.Second})
	c := newClock(time.Second)

	r.Snapshot(c.next()) // baseline: first-sight delta is zero
	for i := 0; i < 5; i++ {
		ctr.Add(10)
		r.Snapshot(c.next())
	}
	got, ok := r.Rate("updates_total", 5*time.Second)
	if !ok {
		t.Fatal("Rate not ok after 6 snapshots")
	}
	if got != 10 {
		t.Fatalf("Rate = %v, want 10/s", got)
	}
	// A 2s window sees only the last two deltas.
	ctr.Add(40)
	r.Snapshot(c.next())
	got, ok = r.Rate("updates_total", 2*time.Second)
	if !ok || got != (10+40)/2.0 {
		t.Fatalf("2s Rate = %v ok=%v, want 25", got, ok)
	}
	if _, ok := r.Rate("nope", time.Second); ok {
		t.Fatal("Rate of unknown series reported ok")
	}
}

func TestRateFamilySumAndExactLabels(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := reg.Counter("rx_total", "", telemetry.L("lane", "0"))
	b := reg.Counter("rx_total", "", telemetry.L("lane", "1"))
	r := New(reg, Options{Slots: 8, Every: time.Second})
	c := newClock(time.Second)

	r.Snapshot(c.next())
	a.Add(3)
	b.Add(7)
	r.Snapshot(c.next())

	if got, ok := r.Rate("rx_total", time.Second); !ok || got != 10 {
		t.Fatalf("family Rate = %v ok=%v, want 10", got, ok)
	}
	if got, ok := r.Rate("rx_total", time.Second, telemetry.L("lane", "1")); !ok || got != 7 {
		t.Fatalf("exact Rate = %v ok=%v, want 7", got, ok)
	}
	if _, ok := r.Rate("rx_total", time.Second, telemetry.L("lane", "9")); ok {
		t.Fatal("Rate with unknown label set reported ok")
	}
}

func TestGaugeRateAndTrend(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("hwm", "")
	r := New(reg, Options{Slots: 8, Every: time.Second})
	c := newClock(time.Second)

	for _, v := range []float64{10, 10, 30, 60} {
		g.Set(v)
		r.Snapshot(c.next())
	}
	// Monotone gauge rate over the last 2 intervals: (60-10)/2.
	if got, ok := r.Rate("hwm", 2*time.Second); !ok || got != 25 {
		t.Fatalf("gauge Rate = %v ok=%v, want 25", got, ok)
	}
	trend, ok := r.Trend("hwm", 3)
	if !ok || len(trend) != 3 || trend[0] != 10 || trend[1] != 30 || trend[2] != 60 {
		t.Fatalf("gauge Trend = %v ok=%v, want [10 30 60]", trend, ok)
	}
}

func TestTrendCounterDeltas(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("n", "")
	r := New(reg, Options{Slots: 8, Every: time.Second})
	c := newClock(time.Second)

	r.Snapshot(c.next())
	for _, d := range []int64{1, 2, 3} {
		ctr.Add(d)
		r.Snapshot(c.next())
	}
	trend, ok := r.Trend("n", 10) // more than available: clipped
	if !ok || len(trend) != 3 || trend[0] != 1 || trend[1] != 2 || trend[2] != 3 {
		t.Fatalf("counter Trend = %v ok=%v, want [1 2 3]", trend, ok)
	}
}

func TestWindowQuantile(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat_ns", "")
	r := New(reg, Options{Slots: 8, Every: time.Second})
	c := newClock(time.Second)

	r.Snapshot(c.next())
	for i := 0; i < 100; i++ {
		h.Observe(1000) // old regime: ~1µs
	}
	r.Snapshot(c.next())
	for i := 0; i < 100; i++ {
		h.Observe(1_000_000) // new regime: ~1ms
	}
	r.Snapshot(c.next())

	// The full-window quantile mixes both regimes; the 1s window sees
	// only the new one.
	all, ok := r.WindowQuantile("lat_ns", 10*time.Second, 0.50)
	if !ok || all >= 2047 == false {
		t.Fatalf("10s p50 = %v ok=%v, want the old-regime bucket (<=2047)", all, ok)
	}
	recent, ok := r.WindowQuantile("lat_ns", time.Second, 0.50)
	if !ok || recent < 500_000 {
		t.Fatalf("1s p50 = %v ok=%v, want the new-regime bucket (>=2^19)", recent, ok)
	}
	if _, ok := r.WindowQuantile("lat_ns", time.Second, 0.5, telemetry.L("x", "y")); ok {
		t.Fatal("quantile with unknown labels reported ok")
	}
}

func TestResyncPreservesHistory(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := reg.Counter("a_total", "")
	r := New(reg, Options{Slots: 8, Every: time.Second})
	c := newClock(time.Second)

	r.Snapshot(c.next())
	a.Add(5)
	r.Snapshot(c.next())

	// A new instrument appears mid-flight: the next snapshot resyncs
	// without losing a's history.
	b := reg.Counter("b_total", "")
	b.Add(2)
	r.Snapshot(c.next()) // b's first sight: zero delta
	b.Add(4)
	a.Add(5)
	r.Snapshot(c.next())

	if got, ok := r.Rate("a_total", 3*time.Second); !ok || got != 10.0/3 {
		t.Fatalf("a Rate = %v ok=%v, want 10/3", got, ok)
	}
	if got, ok := r.Rate("b_total", time.Second); !ok || got != 4 {
		t.Fatalf("b Rate = %v ok=%v, want 4", got, ok)
	}
	if got := len(r.Series()); got != 2 {
		t.Fatalf("Series() = %d entries, want 2", got)
	}
}

func TestRingWrap(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("n", "")
	r := New(reg, Options{Slots: 4, Every: time.Second})
	c := newClock(time.Second)

	for i := 0; i < 20; i++ {
		ctr.Add(int64(i))
		r.Snapshot(c.next())
	}
	// Only the newest 4 slots survive: deltas 16,17,18,19 over 3
	// intervals (the oldest slot only anchors the span).
	got, ok := r.Rate("n", time.Hour)
	if !ok || got != float64(17+18+19)/3 {
		t.Fatalf("wrapped Rate = %v ok=%v, want 18", got, ok)
	}
	slots, filled, every, span, dropped := r.Meta()
	if slots != 4 || filled != 4 || every != time.Second || span != 3*time.Second || dropped != 0 {
		t.Fatalf("Meta = %d %d %v %v %d", slots, filled, every, span, dropped)
	}
}

func TestMaxSeriesCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 10; i++ {
		reg.Counter("m", "", telemetry.L("i", string(rune('a'+i))))
	}
	r := New(reg, Options{Slots: 4, MaxSeries: 3})
	r.Snapshot(time.Unix(0, 0))
	if got := len(r.Series()); got != 3 {
		t.Fatalf("tracked %d series, want 3 (capped)", got)
	}
	if _, _, _, _, dropped := r.Meta(); dropped != 7 {
		t.Fatalf("dropped = %d, want 7", dropped)
	}
}

// TestRingTracksTableTotals pins how the ring sees a telemetry.Table: one
// series per counter column however many rows there are, so a table
// registered first cannot crowd a later instrument past the cap; one walk
// of the owner per Snapshot; the windowed rate of the total; a row dropped
// and registered again from zero never a negative delta; nothing for a
// gauge column; and a steady-state Snapshot that still allocates nothing.
func TestRingTracksTableTotals(t *testing.T) {
	const rows = 40
	counts := make([]float64, rows)
	live := make([]bool, rows)
	labels := make([]string, rows)
	for i := range labels {
		labels[i] = "s" + string(rune('A'+i))
	}
	var vals [2]float64
	walks := 0
	reg := telemetry.NewRegistry()
	reg.Table("source", []telemetry.Column{{Name: "updates_total", Counter: true}, {Name: "level"}},
		func(row func(slot int, label string, vals []float64)) {
			walks++
			for i, on := range live {
				if on {
					vals[0], vals[1] = counts[i], 7
					row(i, labels[i], vals[:])
				}
			}
		})
	late := reg.Counter("registered_after_the_table_total", "")
	for i := range live {
		live[i] = true
	}
	r := New(reg, Options{Slots: 8, Every: time.Second, MaxSeries: 4})
	c := newClock(time.Second)
	step := func(per float64) {
		for i := range counts {
			counts[i] += per
		}
		late.Inc()
		r.Snapshot(c.next())
	}
	step(100) // baseline
	step(1)
	step(1)
	if _, _, _, _, dropped := r.Meta(); dropped != 0 || len(r.Series()) != 2 {
		t.Fatalf("ring tracks %d series and dropped %d over a %d-row table, want 2 and 0", len(r.Series()), dropped, rows)
	}
	if walks != 3 {
		t.Fatalf("3 snapshots walked the table's owner %d times", walks)
	}
	if got, ok := r.Rate("updates_total", 2*time.Second); !ok || got != rows {
		t.Fatalf("Rate of the column total = %v ok=%v, want %d/s", got, ok, rows)
	}
	if got, ok := r.Latest("updates_total"); !ok || got != rows*102 {
		t.Fatalf("Latest of the column total = %v ok=%v, want %d", got, ok, rows*102)
	}
	if got, ok := r.Rate("registered_after_the_table_total", 2*time.Second); !ok || got != 1 {
		t.Fatalf("Rate of the instrument registered after the table = %v ok=%v, want 1/s", got, ok)
	}
	if _, ok := r.Latest("level"); ok {
		t.Fatal("a gauge column has a series in the ring")
	}
	live[3] = false
	step(1)
	live[3], counts[3] = true, 0 // registered again: same slot here, counting from zero
	step(1)
	trend, _ := r.Trend("updates_total", 2)
	if len(trend) != 2 || trend[0] != rows-1 || trend[1] != rows-1 {
		t.Fatalf("deltas across a row's drop and return = %v, want %d twice (the other rows' increases, never negative)", trend, rows-1)
	}
	if allocs := testing.AllocsPerRun(50, func() { step(1) }); allocs != 0 {
		t.Fatalf("steady-state Snapshot over a table allocates %.1f/op, want 0", allocs)
	}
}

// populatedRing builds a ring over a registry shaped like a live
// server's: counters (some labeled), gauges, a non-allocating gauge
// func, and histograms.
func populatedRing() (*Ring, *clock) {
	reg := telemetry.NewRegistry()
	c1 := reg.Counter("updates_total", "", telemetry.L("source", "s1"))
	c2 := reg.Counter("updates_total", "", telemetry.L("source", "s2"))
	reg.Counter("bytes_total", "")
	g := reg.Gauge("depth", "")
	reg.GaugeFunc("ratio", "", func() float64 { return float64(c1.Value()) / 2 })
	h := reg.Histogram("lat_ns", "")
	r := New(reg, Options{Slots: 64, Every: time.Second})
	clk := newClock(time.Second)
	for i := 0; i < 3; i++ {
		c1.Inc()
		c2.Add(2)
		g.SetInt(int64(i))
		h.Observe(int64(1000 * (i + 1)))
		r.Snapshot(clk.next())
	}
	return r, clk
}

// TestHistorySnapshotAllocBudget pins the steady-state contract: once
// every instrument has its buffers, Snapshot allocates nothing.
func TestHistorySnapshotAllocBudget(t *testing.T) {
	r, clk := populatedRing()
	allocs := testing.AllocsPerRun(100, func() {
		r.Snapshot(clk.next())
	})
	if allocs != 0 {
		t.Fatalf("steady-state Snapshot allocates %.1f/op, want 0", allocs)
	}
}

// TestHistoryQueryAllocBudget pins the read-side contract the
// self-monitor relies on: Rate, WindowQuantile and Latest are
// allocation-free, so the per-tick signal reads cost nothing.
func TestHistoryQueryAllocBudget(t *testing.T) {
	r, _ := populatedRing()
	src := []telemetry.Label{telemetry.L("source", "s1")}
	allocs := testing.AllocsPerRun(100, func() {
		r.Rate("updates_total", 30*time.Second)
		r.Rate("updates_total", 30*time.Second, src...)
		r.WindowQuantile("lat_ns", 30*time.Second, 0.99)
		r.Latest("depth")
	})
	if allocs != 0 {
		t.Fatalf("windowed queries allocate %.1f/op, want 0", allocs)
	}
}

func BenchmarkHistorySnapshot(b *testing.B) {
	r, clk := populatedRing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Snapshot(clk.next())
	}
}
