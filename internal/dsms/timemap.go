package dsms

import (
	"fmt"
	"math"
)

// timeMap tracks the seq↔time correspondence a source's updates reveal:
// the bootstrap anchors the line and every update refines the sampling
// rate estimate. Between (and beyond) updates the mapping interpolates
// linearly, which is exact for the fixed-rate sampling the paper
// assumes.
type timeMap struct {
	bootSeq  int
	bootTime float64
	lastSeq  int
	lastTime float64
	anchored bool
}

// observe records an update's (seq, time) pair.
func (t *timeMap) observe(seq int, tim float64) {
	if !t.anchored {
		t.bootSeq, t.bootTime = seq, tim
		t.lastSeq, t.lastTime = seq, tim
		t.anchored = true
		return
	}
	if seq > t.lastSeq {
		t.lastSeq, t.lastTime = seq, tim
	}
}

// rate returns the estimated seconds per reading, or ok=false before two
// distinct anchors exist.
func (t *timeMap) rate() (float64, bool) {
	if !t.anchored || t.lastSeq == t.bootSeq {
		return 0, false
	}
	dt := (t.lastTime - t.bootTime) / float64(t.lastSeq-t.bootSeq)
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return 0, false
	}
	return dt, true
}

// seqFor maps a timestamp to the nearest reading index.
func (t *timeMap) seqFor(tim float64) (int, error) {
	dt, ok := t.rate()
	if !ok {
		return 0, fmt.Errorf("dsms: time mapping needs at least two updates at distinct steps")
	}
	seq := t.bootSeq + int(math.Round((tim-t.bootTime)/dt))
	if seq < t.bootSeq {
		return 0, fmt.Errorf("dsms: time %v precedes the stream start (%v)", tim, t.bootTime)
	}
	return seq, nil
}

// AnswerAtTime evaluates a value query at a wall-clock timestamp: the
// timestamp maps to a reading index through the source's inferred
// sampling rate, then resolves like Answer (current/future) — and like
// AnswerAt when history is enabled and the timestamp is in the past.
func (s *Server) AnswerAtTime(queryID string, tim float64) ([]float64, error) {
	q, err := s.lookup(queryID, kindPoint)
	if err != nil {
		return nil, err
	}
	st := q.src
	st.mu.Lock()
	seq, err := st.times.seqFor(tim)
	if err != nil {
		st.mu.Unlock()
		return nil, fmt.Errorf("dsms: source %s: %w", st.id, err)
	}
	// Past timestamps need the history store; the present and future
	// resolve from the live prediction.
	nodeSeq, hasHistory := st.node.Seq(), st.history != nil
	st.mu.Unlock()
	if seq < nodeSeq && hasHistory {
		return s.AnswerAt(queryID, seq)
	}
	return s.Answer(queryID, seq)
}
