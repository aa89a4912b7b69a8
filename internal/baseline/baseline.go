// Package baseline implements the comparison schemes from the paper's
// evaluation (§5): the cached-approximation precision-bound scheme of
// Olston et al. used by the STREAM project, the moving-average smoother
// of Example 3, and a ship-everything reference.
package baseline

import (
	"fmt"

	"streamkf/internal/stream"
)

// Metrics mirrors core.Metrics for the baseline schemes: the paper's
// percentage-of-updates and average-error evaluation.
type Metrics struct {
	Readings  int
	Updates   int
	BytesSent int
	SumAbsErr float64
	MaxAbsErr float64
}

// PercentUpdates returns 100 * Updates / Readings.
func (m Metrics) PercentUpdates() float64 {
	if m.Readings == 0 {
		return 0
	}
	return 100 * float64(m.Updates) / float64(m.Readings)
}

// AvgErr returns Σ ε_k / n.
func (m Metrics) AvgErr() float64 {
	if m.Readings == 0 {
		return 0
	}
	return m.SumAbsErr / float64(m.Readings)
}

// Cache is the precision-bound caching scheme of §5: each source keeps a
// bound [L, H] with H − L = W ≤ δ. When a reading falls outside the bound
// it is shipped to the server and the bound is recentred on it:
// H' = V + W/2, L' = V − W/2. The server answers queries with the cached
// midpoint. Multi-attribute streams keep an independent bound per
// attribute and transmit the whole tuple when any attribute escapes its
// bound (matching the paper's Example 1: "point P(x,y) is updated to the
// server if error in either X or Y value is greater than δ").
type Cache struct {
	width   float64
	dims    int
	lo, hi  []float64
	cached  []float64
	started bool
	metrics Metrics
}

// NewCache returns a caching baseline with bound width w (= δ) over dims
// attributes.
func NewCache(w float64, dims int) (*Cache, error) {
	if w <= 0 {
		return nil, fmt.Errorf("baseline: cache width = %v, want > 0", w)
	}
	if dims <= 0 {
		return nil, fmt.Errorf("baseline: cache dims = %d, want > 0", dims)
	}
	return &Cache{
		width:  w,
		dims:   dims,
		lo:     make([]float64, dims),
		hi:     make([]float64, dims),
		cached: make([]float64, dims),
	}, nil
}

// Process handles one reading, returning whether it was shipped to the
// server and the server's post-step answer (the cached values).
func (c *Cache) Process(r stream.Reading) (sent bool, serverValues []float64, err error) {
	if len(r.Values) != c.dims {
		return false, nil, fmt.Errorf("baseline: reading has %d values, cache wants %d", len(r.Values), c.dims)
	}
	c.metrics.Readings++
	ship := !c.started
	if c.started {
		for i, v := range r.Values {
			if v < c.lo[i] || v > c.hi[i] {
				ship = true
				break
			}
		}
	}
	if ship {
		for i, v := range r.Values {
			c.cached[i] = v
			c.lo[i] = v - c.width/2
			c.hi[i] = v + c.width/2
		}
		c.started = true
		c.metrics.Updates++
		c.metrics.BytesSent += 8 + 4 + 8*c.dims
	}
	e := stream.AbsErrorSum(r.Values, c.cached)
	c.metrics.SumAbsErr += e
	if e > c.metrics.MaxAbsErr {
		c.metrics.MaxAbsErr = e
	}
	out := make([]float64, c.dims)
	copy(out, c.cached)
	return ship, out, nil
}

// Run drives a full dataset through the cache and returns its metrics.
func (c *Cache) Run(readings []stream.Reading) (Metrics, error) {
	for _, r := range readings {
		if _, _, err := c.Process(r); err != nil {
			return c.metrics, err
		}
	}
	return c.metrics, nil
}

// MovingAverage is the Example 3 comparison smoother: a sliding-window
// mean over the last Window readings of a single-attribute stream.
type MovingAverage struct {
	window int
	buf    []float64
	next   int
	count  int
	sum    float64
}

// NewMovingAverage returns a window-length moving average smoother.
func NewMovingAverage(window int) (*MovingAverage, error) {
	if window <= 0 {
		return nil, fmt.Errorf("baseline: moving average window = %d, want > 0", window)
	}
	return &MovingAverage{window: window, buf: make([]float64, window)}, nil
}

// Observe folds in one value and returns the current mean.
func (m *MovingAverage) Observe(v float64) float64 {
	if m.count == m.window {
		m.sum -= m.buf[m.next]
	} else {
		m.count++
	}
	m.buf[m.next] = v
	m.sum += v
	m.next = (m.next + 1) % m.window
	return m.sum / float64(m.count)
}

// Value returns the current mean (0 before any observation).
func (m *MovingAverage) Value() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Smooth applies the moving average to a whole series.
func (m *MovingAverage) Smooth(vals []float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = m.Observe(v)
	}
	return out
}

// ShipAll is the trivial baseline that transmits every reading; it bounds
// the achievable error (zero) and the bandwidth cost (100%).
type ShipAll struct {
	dims    int
	metrics Metrics
}

// NewShipAll returns a ship-everything baseline over dims attributes.
func NewShipAll(dims int) (*ShipAll, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("baseline: ShipAll dims = %d, want > 0", dims)
	}
	return &ShipAll{dims: dims}, nil
}

// Process ships the reading.
func (s *ShipAll) Process(r stream.Reading) (bool, []float64, error) {
	if len(r.Values) != s.dims {
		return false, nil, fmt.Errorf("baseline: reading has %d values, want %d", len(r.Values), s.dims)
	}
	s.metrics.Readings++
	s.metrics.Updates++
	s.metrics.BytesSent += 8 + 4 + 8*s.dims
	out := make([]float64, s.dims)
	copy(out, r.Values)
	return true, out, nil
}

// Run drives a full dataset.
func (s *ShipAll) Run(readings []stream.Reading) (Metrics, error) {
	for _, r := range readings {
		if _, _, err := s.Process(r); err != nil {
			return s.metrics, err
		}
	}
	return s.metrics, nil
}
