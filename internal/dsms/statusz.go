package dsms

import (
	"net/http"
	"time"

	"streamkf/internal/telemetry"
)

// Verdict surfacing, all JSON: /healthz?verbose=1 (the verdict, admin.go),
// /statusz (the verdict, every self-signal and the retained findings) and
// /metricsz (windowed rates and quantiles). None of them stops the data
// path: they read the history ring under its RLock and the monitor under
// its own mutex, exactly like any other query.

// metricszSeries is one series in the /metricsz document.
type metricszSeries struct {
	Name       string            `json:"name"`
	Labels     map[string]string `json:"labels,omitempty"`
	Kind       string            `json:"kind"`
	Value      float64           `json:"value"`
	RatePerSec *float64          `json:"rate_per_sec,omitempty"`
	P50        *float64          `json:"p50,omitempty"`
	P99        *float64          `json:"p99,omitempty"`
}

// metricszResponse is the /metricsz document.
type metricszResponse struct {
	WindowSeconds float64          `json:"window_seconds"`
	Slots         int              `json:"slots"`
	Filled        int              `json:"filled"`
	EverySeconds  float64          `json:"every_seconds"`
	SpanSeconds   float64          `json:"span_seconds"`
	Dropped       int              `json:"dropped_series"` // registry series past the ring's cap
	Series        []metricszSeries `json:"series"`
}

var seriesKindNames = map[telemetry.SeriesKind]string{
	telemetry.SeriesCounter:   "counter",
	telemetry.SeriesGauge:     "gauge",
	telemetry.SeriesGaugeFunc: "gauge",
	telemetry.SeriesHistogram: "histogram",
}

// MetricszHandler serves windowed rates and quantiles from the history
// ring: every tracked series' latest value, plus rate_per_sec for
// cumulative series and p50/p99 for histograms over the trailing
// window. Parameters: window (Go duration, default 30s), name (exact
// metric-family filter). 503 when self-monitoring is off.
func MetricszHandler(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		m := s.SelfMon()
		if m == nil {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "self-monitoring disabled; start the server with -selfmon"})
			return
		}
		window := 30 * time.Second
		if v := req.URL.Query().Get("window"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				http.Error(w, "bad window: "+v, http.StatusBadRequest)
				return
			}
			window = d
		}
		nameFilter := req.URL.Query().Get("name")
		ring := m.History()
		slots, filled, every, span, dropped := ring.Meta()
		resp := metricszResponse{
			WindowSeconds: window.Seconds(),
			Slots:         slots,
			Filled:        filled,
			EverySeconds:  every.Seconds(),
			SpanSeconds:   span.Seconds(),
			Dropped:       dropped,
		}
		for _, info := range ring.Series() {
			if nameFilter != "" && info.Name != nameFilter {
				continue
			}
			out := metricszSeries{Name: info.Name, Kind: seriesKindNames[info.Kind]}
			if len(info.Labels) > 0 {
				out.Labels = make(map[string]string, len(info.Labels))
				for _, l := range info.Labels {
					out.Labels[l.Key] = l.Value
				}
			}
			out.Value, _ = ring.Latest(info.Name, info.Labels...)
			if info.Kind == telemetry.SeriesCounter || info.Kind == telemetry.SeriesHistogram {
				out.RatePerSec = answered(ring.Rate(info.Name, window, info.Labels...))
			}
			if info.Kind == telemetry.SeriesHistogram {
				out.P50 = answered(ring.WindowQuantile(info.Name, window, 0.50, info.Labels...))
				out.P99 = answered(ring.WindowQuantile(info.Name, window, 0.99, info.Labels...))
			}
			resp.Series = append(resp.Series, out)
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// answered is a windowed read as the document carries it: absent unless
// the ring could answer.
func answered(v float64, ok bool) *float64 {
	if !ok {
		return nil
	}
	return &v
}

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
