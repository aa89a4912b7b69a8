package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamkf/internal/gen"
	"streamkf/internal/stream"
)

func TestCacheValidation(t *testing.T) {
	if _, err := NewCache(0, 1); err == nil {
		t.Fatal("accepted width 0")
	}
	if _, err := NewCache(1, 0); err == nil {
		t.Fatal("accepted dims 0")
	}
}

func TestCacheFirstReadingShips(t *testing.T) {
	c, err := NewCache(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sent, vals, err := c.Process(stream.Reading{Values: []float64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if !sent || vals[0] != 5 {
		t.Fatalf("first reading: sent=%v vals=%v", sent, vals)
	}
}

func TestCacheBoundRecentering(t *testing.T) {
	c, _ := NewCache(2, 1) // bound [v-1, v+1]
	c.Process(stream.Reading{Values: []float64{0}})
	// Within the bound: suppressed, cached value unchanged.
	sent, vals, _ := c.Process(stream.Reading{Values: []float64{0.9}})
	if sent || vals[0] != 0 {
		t.Fatalf("in-bound reading: sent=%v cached=%v", sent, vals)
	}
	// Outside: shipped and recentred.
	sent, vals, _ = c.Process(stream.Reading{Values: []float64{1.5}})
	if !sent || vals[0] != 1.5 {
		t.Fatalf("out-of-bound reading: sent=%v cached=%v", sent, vals)
	}
	// New bound is [0.5, 2.5].
	sent, _, _ = c.Process(stream.Reading{Values: []float64{2.4}})
	if sent {
		t.Fatal("reading within recentred bound was shipped")
	}
}

func TestCacheMultiAttributeAnyEscape(t *testing.T) {
	c, _ := NewCache(2, 2)
	c.Process(stream.Reading{Values: []float64{0, 0}})
	sent, _, _ := c.Process(stream.Reading{Values: []float64{0.5, 5}})
	if !sent {
		t.Fatal("escape in second attribute not shipped")
	}
}

func TestCacheDimMismatch(t *testing.T) {
	c, _ := NewCache(1, 2)
	if _, _, err := c.Process(stream.Reading{Values: []float64{1}}); err == nil {
		t.Fatal("accepted wrong arity")
	}
}

func TestCacheRampUpdatesEveryWidthCrossing(t *testing.T) {
	// On a slope-1 noiseless ramp with width w, the cache ships roughly
	// every w/2 steps (value exits the half-width bound); the error stays
	// below w.
	c, _ := NewCache(4, 1)
	m, err := c.Run(gen.Ramp(400, 0, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	wantUpdates := 400.0 / 2 // bound escapes every width/2 = 2 steps... every 3rd step recentre
	if m.Updates < 100 || m.Updates > int(wantUpdates)+5 {
		t.Fatalf("updates = %d, want around %v", m.Updates, wantUpdates)
	}
	if m.MaxAbsErr > 4 {
		t.Fatalf("max error %v exceeded width", m.MaxAbsErr)
	}
}

func TestCacheErrorBoundedProperty(t *testing.T) {
	// Invariant: the cache's answer is never farther than the bound
	// half-width from the last shipped value, so per-attribute error is
	// bounded by the width on non-shipped readings... in fact the error
	// equals |v - cached| <= width/2 on suppressed readings.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 0.5 + rng.Float64()*5
		c, err := NewCache(w, 1)
		if err != nil {
			return false
		}
		data := gen.RandomWalk(300, 0, 1+rng.Float64()*3, seed)
		for _, r := range data {
			sent, vals, err := c.Process(r)
			if err != nil {
				return false
			}
			if !sent && math.Abs(vals[0]-r.Values[0]) > w/2+1e-12 {
				return false
			}
			if sent && vals[0] != r.Values[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMovingAverage(t *testing.T) {
	if _, err := NewMovingAverage(0); err == nil {
		t.Fatal("accepted window 0")
	}
	m, _ := NewMovingAverage(3)
	if m.Value() != 0 {
		t.Fatal("empty Value != 0")
	}
	if got := m.Observe(3); got != 3 {
		t.Fatalf("first mean = %v", got)
	}
	if got := m.Observe(5); got != 4 {
		t.Fatalf("second mean = %v", got)
	}
	m.Observe(7) // window [3 5 7] -> 5
	if got := m.Observe(9); got != 7 {
		t.Fatalf("rolled mean = %v, want (5+7+9)/3", got)
	}
	if m.Value() != 7 {
		t.Fatalf("Value = %v", m.Value())
	}
}

func TestMovingAverageSmoothLowersVariance(t *testing.T) {
	data := stream.Values(gen.HTTPTraffic(gen.DefaultHTTPTraffic()), 0)
	m, _ := NewMovingAverage(20)
	sm := m.Smooth(data)
	if len(sm) != len(data) {
		t.Fatal("length mismatch")
	}
	if varOf(sm) >= varOf(data) {
		t.Fatalf("smoothing did not lower variance: %v vs %v", varOf(sm), varOf(data))
	}
}

func TestShipAll(t *testing.T) {
	if _, err := NewShipAll(0); err == nil {
		t.Fatal("accepted dims 0")
	}
	s, _ := NewShipAll(1)
	m, err := s.Run(gen.Ramp(50, 0, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Updates != 50 || m.PercentUpdates() != 100 {
		t.Fatalf("ShipAll metrics = %+v", m)
	}
	if m.SumAbsErr != 0 {
		t.Fatalf("ShipAll error = %v, want 0", m.SumAbsErr)
	}
	if _, _, err := s.Process(stream.Reading{Values: []float64{1, 2}}); err == nil {
		t.Fatal("accepted wrong arity")
	}
}

func TestMetricsZero(t *testing.T) {
	var m Metrics
	if m.PercentUpdates() != 0 || m.AvgErr() != 0 {
		t.Fatal("zero metrics not zero")
	}
}

func varOf(vals []float64) float64 {
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var s float64
	for _, v := range vals {
		s += (v - mean) * (v - mean)
	}
	return s / float64(len(vals))
}
