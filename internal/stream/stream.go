// Package stream defines the data-stream abstractions the rest of the
// system is written against: timestamped multi-attribute readings,
// pull-based sources, and continuous queries with precision constraints
// in the sense of the paper's §3.1 (Table 2 notation).
package stream

import (
	"errors"
	"fmt"
)

// Reading is one sensor observation: Seq is the discrete time index k,
// Time the sampling timestamp in seconds, and Values the measured
// attribute vector (e.g. [x, y] for the moving-object example).
type Reading struct {
	Seq    int
	Time   float64
	Values []float64
}

// Source yields readings in sequence order. Next reports ok=false when
// the stream is exhausted.
type Source interface {
	Next() (r Reading, ok bool)
}

// SliceSource adapts an in-memory dataset to the Source interface.
type SliceSource struct {
	readings []Reading
	pos      int
}

// NewSliceSource wraps readings (not copied; callers must not mutate).
func NewSliceSource(readings []Reading) *SliceSource {
	return &SliceSource{readings: readings}
}

// Next implements Source.
func (s *SliceSource) Next() (Reading, bool) {
	if s.pos >= len(s.readings) {
		return Reading{}, false
	}
	r := s.readings[s.pos]
	s.pos++
	return r, true
}

// Len returns the total number of readings in the underlying dataset.
func (s *SliceSource) Len() int { return len(s.readings) }

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// FuncSource adapts a generator function to the Source interface.
type FuncSource func() (Reading, bool)

// Next implements Source.
func (f FuncSource) Next() (Reading, bool) { return f() }

// ChanSource adapts a channel of readings to the Source interface; the
// stream ends when the channel is closed.
type ChanSource <-chan Reading

// Next implements Source.
func (c ChanSource) Next() (Reading, bool) {
	r, ok := <-c
	return r, ok
}

// Collect drains a source into a slice. Intended for tests and dataset
// materialization; unbounded sources will not terminate.
func Collect(s Source) []Reading {
	var out []Reading
	for {
		r, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Values extracts column attr from a dataset.
func Values(readings []Reading, attr int) []float64 {
	out := make([]float64, len(readings))
	for i, r := range readings {
		out[i] = r.Values[attr]
	}
	return out
}

// FromValues builds a single-attribute dataset sampled at interval dt.
func FromValues(vals []float64, dt float64) []Reading {
	out := make([]Reading, len(vals))
	for i, v := range vals {
		out[i] = Reading{Seq: i, Time: float64(i) * dt, Values: []float64{v}}
	}
	return out
}

// Query is a continuous query over one source object, following the
// paper's Table 2: Delta is the precision width Δ_j, and F the optional
// smoothing factor (0 disables the smoothing filter KFc).
type Query struct {
	// ID names the query (q_j).
	ID string
	// SourceID names the target source object (s_i).
	SourceID string
	// Delta is the precision width: the server's answer must stay within
	// Delta of the true source value in every measured dimension.
	Delta float64
	// F is the optional smoothing factor controlling KFc; 0 means the
	// raw stream is filtered directly.
	F float64
	// Model names the stream model to install (resolved by the DSMS).
	Model string
}

// Validate checks query parameters.
func (q Query) Validate() error {
	if q.ID == "" {
		return errors.New("stream: query ID is empty")
	}
	if q.SourceID == "" {
		return fmt.Errorf("stream: query %s has empty source ID", q.ID)
	}
	if q.Delta <= 0 {
		return fmt.Errorf("stream: query %s has non-positive precision width %v", q.ID, q.Delta)
	}
	if q.F < 0 {
		return fmt.Errorf("stream: query %s has negative smoothing factor %v", q.ID, q.F)
	}
	return nil
}

// WithinPrecision reports whether predicted is within delta of actual in
// every dimension — the paper's update test |v̂ - v| > δ applied
// per-attribute (Example 1: "point P is updated to the server if error in
// either X or Y value is greater than δ").
func WithinPrecision(predicted, actual []float64, delta float64) bool {
	if len(predicted) != len(actual) {
		panic(fmt.Sprintf("stream: WithinPrecision dimension mismatch %d vs %d", len(predicted), len(actual)))
	}
	for i := range predicted {
		d := predicted[i] - actual[i]
		if d < 0 {
			d = -d
		}
		if d > delta {
			return false
		}
	}
	return true
}

// AbsErrorSum returns Σ_i |a_i - b_i|, the paper's Example 1 error metric
// (sum of per-coordinate absolute errors).
func AbsErrorSum(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stream: AbsErrorSum dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}
