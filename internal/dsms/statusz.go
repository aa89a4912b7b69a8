package dsms

import "net/http"

// Verdict surfacing, all JSON: /healthz?verbose=1 (the verdict, admin.go)
// and /statusz (the verdict, every self-signal and the retained
// findings). Neither stops the data path: they read the monitor under its
// own mutex, exactly like any other query.

// Statusz is the /statusz document: the health document and, with a
// self-monitor, every signal's state and the retained findings, newest
// first.
type Statusz struct {
	Health   HealthStatus     `json:"health"`
	Signals  []SelfSignalView `json:"signals,omitempty"`
	Findings []HealthFinding  `json:"findings,omitempty"`
}

// StatuszHandler serves the Statusz document.
func StatuszHandler(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		doc := Statusz{Health: s.Health()}
		if m := s.SelfMon(); m != nil {
			doc.Signals, doc.Findings = m.Signals(), m.Findings(0)
		}
		WriteJSON(w, http.StatusOK, doc)
	}
}
