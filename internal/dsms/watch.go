package dsms

import "fmt"

// watcher is a listener on one query — an alert or a subscription. It
// hangs on every stream that feeds the query, so an applied update finds
// its listeners on the record it already holds; fire re-answers the
// query at the update's seq and delivers to the sink.
type watcher interface {
	fire(s *Server, seq int)
}

// watch hangs w on every member stream of queryID. A non-empty alertID
// is claimed in the alert-id set first, failing on a duplicate.
func (s *Server) watch(queryID, alertID string, w watcher) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[queryID]
	if q == nil {
		return fmt.Errorf("dsms: unknown query %s", queryID)
	}
	if alertID != "" {
		if _, dup := s.alerts[alertID]; dup {
			return fmt.Errorf("dsms: duplicate alert id %s", alertID)
		}
		s.alerts[alertID] = struct{}{}
	}
	for _, st := range q.streams() {
		var ws []watcher
		if old := st.watchers.Load(); old != nil {
			ws = append(ws, *old...)
		}
		ws = append(ws, w)
		st.watchers.Store(&ws)
	}
	return nil
}

// unwatch takes w, hung by watch, off every stream it hangs on (a
// watched query's record is never removed). An ingest that loaded a
// stream's watcher list before this may still fire w once more.
func (s *Server) unwatch(queryID string, w watcher) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.queries[queryID].streams() {
		var kept []watcher
		for _, have := range *st.watchers.Load() {
			if have != w {
				kept = append(kept, have)
			}
		}
		st.watchers.Store(&kept)
	}
}

// notify is the post-apply hook: it fires the stream's watchers after
// the ingest path released every lock — sinks re-enter the answer path
// and run caller code. A never-watched stream costs one atomic load.
func (s *Server) notify(st *sourceState, seq int) {
	if ws := st.watchers.Load(); ws != nil {
		for _, w := range *ws {
			w.fire(s, seq)
		}
	}
}
