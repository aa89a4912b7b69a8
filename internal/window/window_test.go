package window

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewStats(0); err == nil {
		t.Fatal("NewStats accepted 0")
	}
	if _, err := NewMinMax(0); err == nil {
		t.Fatal("NewMinMax accepted 0")
	}
	if _, err := NewEWMA(0); err == nil {
		t.Fatal("NewEWMA accepted 0")
	}
	if _, err := NewEWMA(1.5); err == nil {
		t.Fatal("NewEWMA accepted > 1")
	}
}

func TestStatsKnown(t *testing.T) {
	s, _ := NewStats(3)
	if s.Mean() != 0 || s.Variance() != 0 || s.Count() != 0 {
		t.Fatal("empty stats not zero")
	}
	s.Observe(1)
	s.Observe(2)
	s.Observe(3)
	if !s.Full() || s.Mean() != 2 {
		t.Fatalf("mean = %v, full = %v", s.Mean(), s.Full())
	}
	// Population variance of {1,2,3} is 2/3.
	if math.Abs(s.Variance()-2.0/3) > 1e-12 {
		t.Fatalf("variance = %v", s.Variance())
	}
	s.Observe(10) // evicts 1 -> {2,3,10}
	if s.Mean() != 5 {
		t.Fatalf("rolled mean = %v, want 5", s.Mean())
	}
	if s.StdDev() <= 0 {
		t.Fatal("stddev not positive")
	}
}

func TestMinMaxKnown(t *testing.T) {
	m, _ := NewMinMax(3)
	if _, ok := m.Min(); ok {
		t.Fatal("min on empty")
	}
	for _, v := range []float64{5, 3, 8} {
		m.Observe(v)
	}
	if mn, _ := m.Min(); mn != 3 {
		t.Fatalf("min = %v", mn)
	}
	if mx, _ := m.Max(); mx != 8 {
		t.Fatalf("max = %v", mx)
	}
	m.Observe(1) // window {3,8,1}
	if mn, _ := m.Min(); mn != 1 {
		t.Fatalf("min after evict = %v", mn)
	}
	m.Observe(2) // {8,1,2}
	m.Observe(4) // {1,2,4}
	if mx, _ := m.Max(); mx != 4 {
		t.Fatalf("max after 8 left = %v", mx)
	}
	if m.Count() != 3 {
		t.Fatalf("count = %d", m.Count())
	}
}

func TestEWMA(t *testing.T) {
	e, _ := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatal("unprimed value")
	}
	if got := e.Observe(10); got != 10 {
		t.Fatalf("first observation = %v", got)
	}
	if got := e.Observe(0); got != 5 {
		t.Fatalf("second = %v, want 5", got)
	}
}

// Property: windowed Stats and MinMax agree with naive recomputation
// over the trailing window at every step.
func TestWindowAgainstNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		s, err := NewStats(n)
		if err != nil {
			return false
		}
		mm, err := NewMinMax(n)
		if err != nil {
			return false
		}
		var hist []float64
		for step := 0; step < 200; step++ {
			v := rng.NormFloat64() * 100
			s.Observe(v)
			mm.Observe(v)
			hist = append(hist, v)
			lo := len(hist) - n
			if lo < 0 {
				lo = 0
			}
			win := hist[lo:]
			var sum float64
			mn, mx := win[0], win[0]
			for _, w := range win {
				sum += w
				if w < mn {
					mn = w
				}
				if w > mx {
					mx = w
				}
			}
			mean := sum / float64(len(win))
			if math.Abs(s.Mean()-mean) > 1e-6 {
				return false
			}
			gmn, ok1 := mm.Min()
			gmx, ok2 := mm.Max()
			if !ok1 || !ok2 || gmn != mn || gmx != mx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
