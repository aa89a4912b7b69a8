package dsms

import (
	"errors"
	"fmt"

	"streamkf/internal/stream"
)

// WindowQuery is a time-windowed aggregate over one source: "the average
// answer over the last N readings" (e.g. mean load over the last 24
// hourly samples). It is evaluated by replaying the history synopsis over
// the trailing window, so it needs no extra state on the update path and
// no extra transmissions from the source.
type WindowQuery struct {
	// ID names the windowed query.
	ID string
	// SourceID is the target source object.
	SourceID string
	// Func is the aggregate applied over the window.
	Func AggFunc
	// N is the window length in readings.
	N int
	// Delta is the per-reading precision width of the underlying value
	// query; each replayed point is within Delta of the source value, so
	// avg/min/max inherit the same bound (sum inherits N·Delta).
	Delta float64
	// F is the optional smoothing factor.
	F float64
	// Model names the stream model.
	Model string
}

// Validate checks the windowed query.
func (q WindowQuery) Validate() error {
	if q.ID == "" {
		return fmt.Errorf("dsms: window query ID is empty")
	}
	if q.SourceID == "" {
		return fmt.Errorf("dsms: window query %s has empty source", q.ID)
	}
	switch q.Func {
	case AggAvg, AggSum, AggMin, AggMax:
	default:
		return fmt.Errorf("dsms: window query %s has unknown function %q", q.ID, q.Func)
	}
	if q.N < 1 {
		return fmt.Errorf("dsms: window query %s has window %d, want >= 1", q.ID, q.N)
	}
	if q.Delta <= 0 {
		return fmt.Errorf("dsms: window query %s has non-positive delta %v", q.ID, q.Delta)
	}
	if q.F < 0 {
		return fmt.Errorf("dsms: window query %s has negative F %v", q.ID, q.F)
	}
	return nil
}

// baseQueryID names the implicit per-reading value query under a
// windowed query.
func (q WindowQuery) baseQueryID() string { return q.ID + "/base" }

// RegisterWindow installs a windowed query: it registers the underlying
// per-reading value query, enables history on the source (the window is
// evaluated by replay), and records the window parameters. Like other
// registrations it must precede the source's first transmission.
func (s *Server) RegisterWindow(q WindowQuery) error {
	if err := q.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queries[q.ID] != nil {
		return fmt.Errorf("dsms: duplicate window query id %s", q.ID)
	}
	base := stream.Query{ID: q.baseQueryID(), SourceID: q.SourceID, Delta: q.Delta, F: q.F, Model: q.Model}
	st, created, err := s.adoptOrRegisterLocked(base)
	if err != nil {
		return fmt.Errorf("dsms: window query %s: %w", q.ID, err)
	}
	// History may already be enabled for this source; that is fine.
	if err := st.enableHistory(); err != nil && !errors.Is(err, errHistoryEnabled) {
		if created {
			s.dropLocked(base.ID)
		}
		return fmt.Errorf("dsms: window query %s: %w", q.ID, err)
	}
	s.queries[q.ID] = &query{src: st, win: &q}
	return nil
}

// AnswerWindow evaluates the windowed query ending at reading index seq:
// the trailing N answers are replayed from history and aggregated. The
// window is clamped at the stream start.
func (s *Server) AnswerWindow(queryID string, seq int) (float64, error) {
	var v [1]float64
	return scalar(s.answer(queryID, kindWindow, seq, v[:0]))
}

// answerWindow replays the stream's history over q's window ending at
// seq and folds it through AggFold, the aggregate queries' fold: a window
// sum and an aggregate sum over the same values are the same bits.
func (st *sourceState) answerWindow(q *WindowQuery, seq int) (float64, error) {
	st.mu.Lock()
	if st.history == nil || st.history.Len() == 0 {
		st.mu.Unlock()
		return 0, fmt.Errorf("dsms: window query %s: source %s has no history yet", q.ID, st.id)
	}
	from := seq - q.N + 1
	if first := st.history.FirstSeq(); from < first {
		from = first
	}
	rec, err := st.historyRange(from, seq)
	st.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if len(rec) == 0 {
		return 0, fmt.Errorf("dsms: window query %s: no readings in [%d, %d]", q.ID, from, seq)
	}
	var f AggFold
	f.Reset(q.Func)
	for _, r := range rec {
		if len(r.Values) != 1 {
			return 0, fmt.Errorf("dsms: window query %s: source is not single-attribute", q.ID)
		}
		f.Add(r.Values[0])
	}
	return f.Finish(len(rec)), nil
}
