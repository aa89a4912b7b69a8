package dsms

import (
	"fmt"
	"sync"
)

// AlertDirection says which crossing fires an alert.
type AlertDirection int

const (
	// AlertAbove fires when the value rises above the threshold.
	AlertAbove AlertDirection = iota
	// AlertBelow fires when the value falls below the threshold.
	AlertBelow
)

// Alert is a continuous threshold predicate over a registered query
// (value or aggregate): "tell me when the answer crosses T". Because the
// server answers from its prediction, the alert reacts to every update
// without the sources knowing the predicate exists — the same filters
// serve both query shapes, the paper's "building block" argument.
//
// Hysteresis suppresses flapping: after firing, the alert re-arms only
// once the value retreats past Threshold ∓ Hysteresis. Picking
// Hysteresis ≥ the query's δ guarantees prediction error alone can never
// re-fire an armed alert.
type Alert struct {
	// ID names the alert.
	ID string
	// QueryID is the registered (value or aggregate) query to watch.
	// Value queries must be single-attribute.
	QueryID string
	// Threshold is the crossing level.
	Threshold float64
	// Direction selects which crossing fires.
	Direction AlertDirection
	// Hysteresis is the re-arm band width (>= 0).
	Hysteresis float64
}

// Validate checks the alert definition.
func (a Alert) Validate() error {
	if a.ID == "" {
		return fmt.Errorf("dsms: alert ID is empty")
	}
	if a.QueryID == "" {
		return fmt.Errorf("dsms: alert %s has empty query id", a.ID)
	}
	if a.Direction != AlertAbove && a.Direction != AlertBelow {
		return fmt.Errorf("dsms: alert %s has unknown direction %d", a.ID, a.Direction)
	}
	if a.Hysteresis < 0 {
		return fmt.Errorf("dsms: alert %s has negative hysteresis %v", a.ID, a.Hysteresis)
	}
	return nil
}

// AlertEvent is delivered to the alert's callback when it fires.
type AlertEvent struct {
	AlertID string
	QueryID string
	Seq     int
	Value   float64
}

// alertState is one registered alert: a watcher whose sink is the
// hysteresis state machine and the callback.
type alertState struct {
	cfg Alert
	fn  func(AlertEvent)

	mu    sync.Mutex // the watched query's streams may fire concurrently
	fired bool
}

// RegisterAlert installs a threshold alert over an existing query of
// any kind. The callback runs synchronously on the update path, outside
// every server lock (it may call back into the server); keep it short.
func (s *Server) RegisterAlert(a Alert, fn func(AlertEvent)) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if fn == nil {
		return fmt.Errorf("dsms: alert %s has nil callback", a.ID)
	}
	return s.watch(a.QueryID, a.ID, &alertState{cfg: a, fn: fn})
}

// fire evaluates the alert against the watched query's answer at seq.
func (st *alertState) fire(s *Server, seq int) {
	vals, err := s.answer(st.cfg.QueryID, kindAny, seq, nil)
	if err != nil || len(vals) != 1 {
		return // sources not all streaming yet, or not a scalar: nothing to evaluate
	}
	a, value := st.cfg, vals[0]
	inZone := value > a.Threshold
	rearmed := value < a.Threshold-a.Hysteresis
	if a.Direction == AlertBelow {
		inZone = value < a.Threshold
		rearmed = value > a.Threshold+a.Hysteresis
	}
	st.mu.Lock()
	fire := inZone && !st.fired
	if fire {
		st.fired = true
	} else if st.fired && rearmed {
		// Re-arm only once the value retreats past the hysteresis band.
		st.fired = false
	}
	st.mu.Unlock()
	if fire {
		st.fn(AlertEvent{AlertID: a.ID, QueryID: a.QueryID, Seq: seq, Value: value})
	}
}
