// Package window provides sliding-window statistics over streams: a
// ring-buffered mean/variance, O(1) amortized min/max via monotonic
// deques, and an exponentially weighted moving average. These are the
// standard DSMS building blocks for time-windowed aggregates ("average
// load over the last 24 hours"), used by the windowed query support in
// internal/dsms.
package window

import (
	"fmt"
	"math"
)

// Stats maintains mean and variance over the last N observations.
type Stats struct {
	buf   []float64
	next  int
	count int
	sum   float64
	sumSq float64
}

// NewStats returns a sliding-window statistic over n observations.
func NewStats(n int) (*Stats, error) {
	if n < 1 {
		return nil, fmt.Errorf("window: size %d, want >= 1", n)
	}
	return &Stats{buf: make([]float64, n)}, nil
}

// Observe folds in one value, evicting the oldest when full.
func (s *Stats) Observe(v float64) {
	if s.count == len(s.buf) {
		old := s.buf[s.next]
		s.sum -= old
		s.sumSq -= old * old
	} else {
		s.count++
	}
	s.buf[s.next] = v
	s.sum += v
	s.sumSq += v * v
	s.next = (s.next + 1) % len(s.buf)
}

// Count returns the number of observations currently in the window.
func (s *Stats) Count() int { return s.count }

// Full reports whether the window holds its full capacity.
func (s *Stats) Full() bool { return s.count == len(s.buf) }

// Mean returns the window mean (0 when empty).
func (s *Stats) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Variance returns the window's population variance (0 when empty).
// Computed from running sums; clamped at zero against roundoff.
func (s *Stats) Variance() float64 {
	if s.count == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.count) - m*m
	if v < 0 {
		v = 0
	}
	return v
}

// StdDev returns the window's population standard deviation.
func (s *Stats) StdDev() float64 { return math.Sqrt(s.Variance()) }

// MinMax maintains the minimum and maximum over the last N observations
// in O(1) amortized time using a pair of monotonic deques.
type MinMax struct {
	n     int
	seq   int
	minDQ []entry // increasing values
	maxDQ []entry // decreasing values
	count int
}

type entry struct {
	seq int
	v   float64
}

// NewMinMax returns a sliding-window extremum tracker over n
// observations.
func NewMinMax(n int) (*MinMax, error) {
	if n < 1 {
		return nil, fmt.Errorf("window: size %d, want >= 1", n)
	}
	return &MinMax{n: n}, nil
}

// Observe folds in one value.
func (m *MinMax) Observe(v float64) {
	// Evict entries that fell out of the window.
	cutoff := m.seq - m.n
	for len(m.minDQ) > 0 && m.minDQ[0].seq <= cutoff {
		m.minDQ = m.minDQ[1:]
	}
	for len(m.maxDQ) > 0 && m.maxDQ[0].seq <= cutoff {
		m.maxDQ = m.maxDQ[1:]
	}
	// Maintain monotonicity.
	for len(m.minDQ) > 0 && m.minDQ[len(m.minDQ)-1].v >= v {
		m.minDQ = m.minDQ[:len(m.minDQ)-1]
	}
	for len(m.maxDQ) > 0 && m.maxDQ[len(m.maxDQ)-1].v <= v {
		m.maxDQ = m.maxDQ[:len(m.maxDQ)-1]
	}
	m.minDQ = append(m.minDQ, entry{m.seq, v})
	m.maxDQ = append(m.maxDQ, entry{m.seq, v})
	m.seq++
	if m.count < m.n {
		m.count++
	}
}

// Count returns the number of observations currently in the window.
func (m *MinMax) Count() int { return m.count }

// Min returns the window minimum; ok=false when empty.
func (m *MinMax) Min() (float64, bool) {
	if len(m.minDQ) == 0 {
		return 0, false
	}
	return m.minDQ[0].v, true
}

// Max returns the window maximum; ok=false when empty.
func (m *MinMax) Max() (float64, bool) {
	if len(m.maxDQ) == 0 {
		return 0, false
	}
	return m.maxDQ[0].v, true
}

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0, 1]: larger alpha weighs recent observations more.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with the given smoothing factor.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("window: alpha %v, want (0, 1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Observe folds in one value and returns the updated average.
func (e *EWMA) Observe(v float64) float64 {
	if !e.primed {
		e.value = v
		e.primed = true
		return v
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }
