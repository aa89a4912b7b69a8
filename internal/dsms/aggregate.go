package dsms

import (
	"fmt"
	"math"
	"sync"

	"streamkf/internal/stream"
)

// AggFunc is an aggregate over the current values of several sources.
type AggFunc string

// Supported aggregate functions.
const (
	AggAvg AggFunc = "avg"
	AggSum AggFunc = "sum"
	AggMin AggFunc = "min"
	AggMax AggFunc = "max"
)

// AggregateQuery is a continuous aggregate over multiple single-attribute
// sources, e.g. "the average zonal load across zones a, b, c within ±50".
//
// This is the paper's answer to COUGAR-style in-network aggregation
// (Table 1) and its future-work item 4 (tuning parameters for multiple
// queries): instead of shipping raw tuples to an in-network combiner, the
// server aggregates its per-source *predictions*, and the aggregate's
// precision constraint Δ is allocated down to per-source widths δ_i so
// the composed error stays within Δ.
type AggregateQuery struct {
	// ID names the aggregate query.
	ID string
	// SourceIDs are the participating sources (at least one).
	SourceIDs []string
	// Func is the aggregate function.
	Func AggFunc
	// Delta is the aggregate precision constraint Δ.
	Delta float64
	// Model names the per-source stream model.
	Model string
	// F is the optional per-source smoothing factor.
	F float64
	// Partial marks a shard-local partial aggregate in cluster mode:
	// this server owns only a subset of the aggregate's sources, and
	// answers with mergeable partial state (the exact-sum expansion for
	// sum/avg, the local extremum for min/max) instead of a finished
	// scalar. The router merges partials across shards; see
	// internal/dsms/cluster.
	Partial bool
}

// Validate checks the aggregate query.
func (q AggregateQuery) Validate() error {
	if q.ID == "" {
		return fmt.Errorf("dsms: aggregate query ID is empty")
	}
	if len(q.SourceIDs) == 0 {
		return fmt.Errorf("dsms: aggregate query %s has no sources", q.ID)
	}
	seen := make(map[string]bool, len(q.SourceIDs))
	for _, id := range q.SourceIDs {
		if id == "" {
			return fmt.Errorf("dsms: aggregate query %s has an empty source id", q.ID)
		}
		if seen[id] {
			return fmt.Errorf("dsms: aggregate query %s lists source %s twice", q.ID, id)
		}
		seen[id] = true
	}
	switch q.Func {
	case AggAvg, AggSum, AggMin, AggMax:
	default:
		return fmt.Errorf("dsms: aggregate query %s has unknown function %q", q.ID, q.Func)
	}
	if q.Delta <= 0 {
		return fmt.Errorf("dsms: aggregate query %s has non-positive delta %v", q.ID, q.Delta)
	}
	if q.F < 0 {
		return fmt.Errorf("dsms: aggregate query %s has negative F %v", q.ID, q.F)
	}
	return nil
}

// PerSourceDelta returns the precision width δ_i allocated to each
// source so the aggregate answer stays within Δ (assuming per-source
// answers within ±δ_i):
//
//   - sum: errors add, so δ_i = Δ / t
//   - avg: the mean of t errors each ≤ δ is ≤ δ, so δ_i = Δ
//   - min/max: the extremum moves at most max_i δ_i, so δ_i = Δ
func (q AggregateQuery) PerSourceDelta() float64 {
	if q.Func == AggSum {
		return q.Delta / float64(len(q.SourceIDs))
	}
	return q.Delta
}

// Evaluate applies the aggregate function to per-source values — one
// AggFold over them, the same fold the server memo and the cluster
// router run, so the answer depends only on the multiset of member
// values however they are grouped.
func (q AggregateQuery) Evaluate(values []float64) float64 {
	var f AggFold
	f.Reset(q.Func)
	f.Merge(values)
	return f.Finish(len(values))
}

// AggFold is the one aggregate accumulator: values go in one at a time
// (Add) or as another fold's partial state (Merge), and come out as
// mergeable partial state (Partial) or the finished scalar (Finish).
// Sum and avg keep Shewchuk's exact non-overlapping expansion (fsum.go),
// whose rounded value is a function of the value multiset only; min and
// max keep the one extremum, with ties between -0 and +0 broken by sign.
// Every grouping of the same members across folds therefore finishes to
// the same bits — what makes a routed aggregate equal a single server's
// exactly. The zero value must be Reset before use.
type AggFold struct {
	fn    AggFunc
	state []float64 // sum, avg: the expansion; min, max: the extremum
}

// Reset empties the fold for fn, keeping its backing array.
func (f *AggFold) Reset(fn AggFunc) {
	f.fn, f.state = fn, f.state[:0]
	switch fn {
	case AggMin:
		f.state = append(f.state, math.Inf(1))
	case AggMax:
		f.state = append(f.state, math.Inf(-1))
	}
}

// Add folds one member value in.
func (f *AggFold) Add(v float64) {
	switch f.fn {
	case AggSum, AggAvg:
		f.state = addToExpansion(f.state, v)
	case AggMin:
		if m := f.state[0]; v < m || (v == m && math.Signbit(v)) {
			f.state[0] = v
		}
	default: // AggMax
		if m := f.state[0]; v > m || (v == m && !math.Signbit(v)) {
			f.state[0] = v
		}
	}
}

// Merge folds another fold's Partial in: expansion components and
// extrema both combine by Add.
func (f *AggFold) Merge(partial []float64) {
	for _, v := range partial {
		f.Add(v)
	}
}

// Partial returns the mergeable state — for sum and avg the expansion
// (components whose exact sum is the sum of everything added), for min
// and max the single extremum. It aliases the fold; copy to keep.
func (f *AggFold) Partial() []float64 { return f.state }

// Finish returns the aggregate over n members in total.
func (f *AggFold) Finish(n int) float64 {
	switch f.fn {
	case AggSum:
		return roundExpansion(f.state)
	case AggAvg:
		return roundExpansion(f.state) / float64(n)
	default:
		return f.state[0]
	}
}

// RegisterAggregate installs an aggregate query: it registers one
// implicit per-source continuous query with the allocated width δ_i, then
// records the aggregate for answering. Like Register, it must run before
// the sources start streaming.
func (s *Server) RegisterAggregate(q AggregateQuery) error {
	if err := q.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queries[q.ID] != nil {
		return fmt.Errorf("dsms: duplicate aggregate query id %s", q.ID)
	}
	rec := &query{agg: &aggregate{def: q}}
	delta := q.PerSourceDelta()
	var installed []string
	for _, src := range q.SourceIDs {
		sub := stream.Query{ID: q.ID + "/" + src, SourceID: src, Delta: delta, F: q.F, Model: q.Model}
		st, created, err := s.adoptOrRegisterLocked(sub)
		if err != nil {
			// Roll back the sub-queries installed so far.
			for _, id := range installed {
				s.dropLocked(id)
			}
			return fmt.Errorf("dsms: aggregate %s: %w", q.ID, err)
		}
		if created {
			installed = append(installed, sub.ID)
		}
		rec.agg.members = append(rec.agg.members, st)
	}
	s.queries[q.ID] = rec
	return nil
}

// aggregate is the aggregate half of a query record: the definition and
// the memo of its last computed answer, stamped with the reading index
// it was computed at and the sum of the members' version counters. A
// repeated point read of an unchanged aggregate is then O(1): one atomic
// load per member and no filter work, instead of re-advancing and
// re-evaluating every member under its lock. Any member mutation (update
// apply, replayed advance, state restore) bumps its version and invalidates
// the memo.
type aggregate struct {
	def     AggregateQuery
	members []*sourceState // in def.SourceIDs order

	mu    sync.Mutex // guards the memo; taken before any member's lock
	valid bool
	seq   int
	vsum  uint64
	fold  AggFold // over the local members; its Partial is what a router merges
	value float64 // fold finished over the local members
}

// at serves the aggregate at seq — from the memo when no member changed
// since it was last computed there, recomputing it otherwise — as its
// finished scalar and, for a Partial aggregate, a copy of the mergeable
// partial vector a cluster router folds.
func (a *aggregate) at(tel *serverTelemetry, seq int) (value float64, partial []float64, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Summing the versions before the member answers makes the memo
	// conservative: a mutation racing the computation lands a version
	// the stored stamp misses, forcing a recompute on the next read.
	var vsum uint64
	for _, st := range a.members {
		vsum += uint64(st.version.Load())
	}
	if a.valid && a.seq == seq && a.vsum == vsum {
		tel.aggMemoHits.Inc()
	} else {
		a.valid = false
		a.fold.Reset(a.def.Func)
		for _, st := range a.members {
			vals, err := st.answer(seq)
			if err != nil {
				return 0, nil, err
			}
			if len(vals) != 1 {
				return 0, nil, fmt.Errorf("dsms: aggregate %s: source %s is not single-attribute", a.def.ID, st.id)
			}
			a.fold.Add(vals[0])
		}
		tel.aggAnswers.Inc()
		a.value = a.fold.Finish(len(a.members))
		a.seq, a.vsum, a.valid = seq, vsum, true
	}
	if a.def.Partial {
		partial = append(partial, a.fold.Partial()...)
	}
	return a.value, partial, nil
}

// AnswerAggregate evaluates the aggregate query at reading index seq:
// the aggregate of every participating source's prediction at seq is
// returned, no filter advanced. Repeated reads at the same
// seq with no intervening member changes are served from a memo in
// O(1) (see aggregate).
func (s *Server) AnswerAggregate(queryID string, seq int) (float64, error) {
	var v [1]float64
	return scalar(s.answer(queryID, kindAggregate, seq, v[:0]))
}

// scalar is the value of a one-value answer.
func scalar(vals []float64, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}
