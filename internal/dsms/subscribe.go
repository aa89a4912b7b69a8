package dsms

import "sync"

// Notification is pushed to subscribers when a query's answer refreshes
// (i.e. when an update from one of its sources arrives).
type Notification struct {
	QueryID string
	Seq     int
	Values  []float64
}

// subscription is one registered listener: a watcher whose sink is a
// drop-oldest channel.
type subscription struct {
	queryID string

	mu     sync.Mutex // orders sends against the close in cancel
	closed bool
	ch     chan Notification
}

// Subscribe returns a channel that receives the query's fresh answer
// whenever one of its sources transmits an update; the query may be of
// any kind. The channel is buffered; if the subscriber falls behind,
// intermediate notifications are dropped (the newest answer always
// supersedes older ones, so a slow reader only ever misses superseded
// values). Cancel releases the subscription and closes the channel.
func (s *Server) Subscribe(queryID string, buffer int) (ch <-chan Notification, cancel func(), err error) {
	if buffer < 1 {
		buffer = 1
	}
	sub := &subscription{queryID: queryID, ch: make(chan Notification, buffer)}
	if err := s.watch(queryID, "", sub); err != nil {
		return nil, nil, err
	}
	var once sync.Once
	cancel = func() {
		once.Do(func() {
			s.unwatch(queryID, sub)
			sub.mu.Lock()
			sub.closed = true
			close(sub.ch)
			sub.mu.Unlock()
		})
	}
	return sub.ch, cancel, nil
}

// fire pushes the watched query's answer at seq.
func (sub *subscription) fire(s *Server, seq int) {
	vals, err := s.answer(sub.queryID, kindAny, seq, nil)
	if err != nil {
		return
	}
	n := Notification{QueryID: sub.queryID, Seq: seq, Values: vals}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	// Non-blocking send with drop-oldest semantics: stale answers are
	// superseded by this one anyway.
	select {
	case sub.ch <- n:
	default:
		select {
		case <-sub.ch:
		default:
		}
		select {
		case sub.ch <- n:
		default:
		}
	}
}
