package synopsis

import (
	"fmt"
	"sort"

	"streamkf/internal/mat"
	"streamkf/internal/stream"
)

// The recorder entry points below build a Store directly from a DKF
// update stream instead of from raw readings. The insight is that the
// server's update log *is* a synopsis: the bootstrap plus the
// transmitted corrections are exactly the information needed to replay
// the server's per-step answers, each within the session's precision
// width of the original reading. This is what turns the paper's
// future-work item 7 into a server-side feature — historical queries
// over data the sensors never fully sent.

// RecordBootstrap starts the store from a session's bootstrap update.
// It fails if readings were already appended.
func (s *Store) RecordBootstrap(seq int, values []float64) error {
	if s.filter != nil || s.n > 0 {
		return fmt.Errorf("synopsis: RecordBootstrap on a non-empty store")
	}
	if len(values) != s.mdl.MeasDim {
		return fmt.Errorf("synopsis: bootstrap has %d values, model wants %d", len(values), s.mdl.MeasDim)
	}
	f, err := s.mdl.NewFilter(values)
	if err != nil {
		return err
	}
	s.filter = f
	s.bootSeq = seq
	s.boot = cloneVals(values)
	s.lastSeq = seq
	s.n = 1
	return nil
}

// RecordUpdate folds a transmitted (non-bootstrap) update into the
// store: the filter predicts through the suppressed gap, corrects with
// the update's values, and the correction is stored verbatim.
func (s *Store) RecordUpdate(seq int, values []float64) error {
	if s.filter == nil {
		return fmt.Errorf("synopsis: RecordUpdate before RecordBootstrap")
	}
	if seq <= s.lastSeq {
		return fmt.Errorf("synopsis: update at seq %d not after %d", seq, s.lastSeq)
	}
	if len(values) != s.mdl.MeasDim {
		return fmt.Errorf("synopsis: update has %d values, model wants %d", len(values), s.mdl.MeasDim)
	}
	for s.lastSeq < seq {
		s.filter.Coast(1)
		s.lastSeq++
		s.n++
	}
	if err := s.filter.Correct(mat.Vec(values...)); err != nil {
		return err
	}
	s.corrections = append(s.corrections, Point{Seq: seq, Values: cloneVals(values)})
	return nil
}

// ExtendTo marks that the stream has advanced (silently) through seq:
// suppressed steps with no correction. Replay will answer them from the
// model's prediction.
func (s *Store) ExtendTo(seq int) error {
	if s.filter == nil {
		return fmt.Errorf("synopsis: ExtendTo before RecordBootstrap")
	}
	for s.lastSeq < seq {
		s.filter.Coast(1)
		s.lastSeq++
		s.n++
	}
	return nil
}

// LastSeq returns the most recent sequence number covered by the store.
func (s *Store) LastSeq() int { return s.lastSeq }

// FirstSeq returns the bootstrap sequence number.
func (s *Store) FirstSeq() int { return s.bootSeq }

// At reconstructs the stored answer at one sequence number by replaying
// the model from the bootstrap. O(seq − FirstSeq) per call; use
// Reconstruct or Range for bulk access.
func (s *Store) At(seq int) ([]float64, error) {
	vals, err := s.Range(seq, seq)
	if err != nil {
		return nil, err
	}
	return vals[0].Values, nil
}

// Range reconstructs the answers for the inclusive sequence interval
// [from, to] in a single replay pass.
func (s *Store) Range(from, to int) ([]stream.Reading, error) {
	if s.n == 0 {
		return nil, fmt.Errorf("synopsis: empty store")
	}
	if from < s.bootSeq || to > s.lastSeq || from > to {
		return nil, fmt.Errorf("synopsis: range [%d, %d] outside stored [%d, %d]", from, to, s.bootSeq, s.lastSeq)
	}
	f, err := s.mdl.NewFilter(s.boot)
	if err != nil {
		return nil, err
	}
	out := make([]stream.Reading, 0, to-from+1)
	emit := func(seq int, vals []float64) {
		if seq >= from && seq <= to {
			out = append(out, stream.Reading{Seq: seq, Values: vals})
		}
	}
	emit(s.bootSeq, cloneVals(s.boot))
	// Index of the first correction at or after bootSeq+1.
	ci := sort.Search(len(s.corrections), func(i int) bool { return s.corrections[i].Seq > s.bootSeq })
	for seq := s.bootSeq + 1; seq <= to; seq++ {
		f.Coast(1)
		if ci < len(s.corrections) && s.corrections[ci].Seq == seq {
			if err := f.Correct(mat.Vec(s.corrections[ci].Values...)); err != nil {
				return nil, err
			}
			emit(seq, cloneVals(s.corrections[ci].Values))
			ci++
			continue
		}
		emit(seq, f.PredictedMeasurement().VecSlice())
	}
	return out, nil
}
