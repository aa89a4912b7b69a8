package dsms

import (
	"errors"
	"fmt"

	"streamkf/internal/stream"
	"streamkf/internal/synopsis"
)

// EnableHistory turns on historical queries for a source: from then on,
// every update the server receives is also recorded into a synopsis
// store (the update log is exactly the information a synopsis needs), so
// past answers can be replayed on demand. Storage grows with the number
// of *updates*, not readings — the same compression the protocol already
// bought on the wire.
//
// Must be called after the source's queries are registered and before it
// starts streaming, so the bootstrap update is captured.
func (s *Server) EnableHistory(sourceID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.source(sourceID)
	if st == nil || st.queries == nil {
		return fmt.Errorf("dsms: no query registered for source %s", sourceID)
	}
	return st.enableHistory()
}

// errHistoryEnabled is what a second EnableHistory on one source wraps;
// RegisterWindow, which only needs history on, tolerates it.
var errHistoryEnabled = errors.New("dsms: history already enabled")

// enableHistory attaches the synopsis store. Caller holds Server.mu
// (the store is built from the shared configuration).
func (st *sourceState) enableHistory() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.node.Installed() {
		return fmt.Errorf("dsms: source %s already streaming; enable history before the bootstrap", st.id)
	}
	if st.history != nil {
		return fmt.Errorf("%w for %s", errHistoryEnabled, st.id)
	}
	store, err := synopsis.New(st.cfg.Model, st.cfg.Delta)
	if err != nil {
		return err
	}
	st.history = store
	return nil
}

// recordHistory folds an update into the source's history store, if
// enabled. Called with the source's runtime lock held.
func (st *sourceState) recordHistory(seq int, values []float64, bootstrap bool) error {
	if st.history == nil {
		return nil
	}
	if bootstrap {
		return st.history.RecordBootstrap(seq, values)
	}
	return st.history.RecordUpdate(seq, values)
}

// AnswerAt evaluates a value query at any past (or current) sequence
// number by replaying the history store. Suppressed steps reproduce the
// prediction the server answered live (within the query's δ of the
// source value); update steps return the transmitted measurement
// exactly.
func (s *Server) AnswerAt(queryID string, seq int) ([]float64, error) {
	q := s.query(queryID)
	if q == nil || q.kind() != kindPoint {
		return nil, fmt.Errorf("dsms: unknown query %s", queryID)
	}
	st := q.src
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.extendHistory(seq); err != nil {
		return nil, err
	}
	return st.history.At(seq)
}

// historyRange replays the store over [from, to]. Caller holds st.mu.
func (st *sourceState) historyRange(from, to int) ([]stream.Reading, error) {
	if err := st.extendHistory(to); err != nil {
		return nil, err
	}
	return st.history.Range(from, to)
}

// extendHistory makes the store (which must be enabled) cover seq.
// Sequence numbers beyond the last update are the same extrapolation
// the live node performs: the log's prediction is extended out to the
// asked-for step. Caller holds st.mu.
func (st *sourceState) extendHistory(seq int) error {
	if st.history == nil {
		return fmt.Errorf("dsms: history not enabled for source %s", st.id)
	}
	if seq > st.history.LastSeq() {
		return st.history.ExtendTo(seq)
	}
	return nil
}

// HistoryStats reports the history store's footprint for a source.
func (s *Server) HistoryStats(sourceID string) (readings, corrections int, err error) {
	st := s.source(sourceID)
	if st == nil {
		return 0, 0, fmt.Errorf("dsms: history not enabled for source %s", sourceID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.history == nil {
		return 0, 0, fmt.Errorf("dsms: history not enabled for source %s", sourceID)
	}
	return st.history.Len(), st.history.Corrections(), nil
}
