package dsms

import (
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"time"

	"streamkf/internal/telemetry"
)

// Verdict surfacing: /healthz (machine probe, admin.go), /statusz (human
// dashboard) and /metricsz (windowed-rate JSON API). All three are
// dependency-free — the dashboard is server-rendered HTML with inline
// SVG sparklines, no scripts, no external assets — and none of them
// stops the data path: they read the history ring under its RLock and
// the monitor under its own mutex, exactly like any other query.

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
		slots, filled, every, _, _ := ring.Meta()
		resp := metricszResponse{
			WindowSeconds: window.Seconds(),
			Slots:         slots,
			Filled:        filled,
			EverySeconds:  every.Seconds(),
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

// sparklineSVG renders samples as an inline SVG polyline, oldest to
// newest, auto-scaled to the sample range. Empty input renders an
// empty frame.
func sparklineSVG(samples []float64, w, h int) HTML {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" preserveAspectRatio="none" class="spark">`, w, h, w, h)
	if len(samples) >= 2 {
		lo := slices.Min(samples)
		span := slices.Max(samples) - lo
		if span == 0 {
			span = 1
		}
		b.WriteString(`<polyline fill="none" stroke="currentColor" stroke-width="1" points="`)
		dx := float64(w-2) / float64(len(samples)-1)
		for i, v := range samples {
			x := 1 + dx*float64(i)
			y := 1 + (float64(h-2))*(1-(v-lo)/span)
			fmt.Fprintf(&b, "%.1f,%.1f ", x, y)
		}
		b.WriteString(`"/>`)
	}
	b.WriteString(`</svg>`)
	return HTML(b.String())
}

// adminStyle is the inline stylesheet of every admin dashboard, shard
// server and router alike.
const adminStyle = `<style>
body{font-family:system-ui,sans-serif;margin:1.5rem;color:#1a1a1a;max-width:70rem}
h1{font-size:1.3rem}h2{font-size:1.05rem;margin-top:1.6rem}
table{border-collapse:collapse;width:100%}
th,td{text-align:left;padding:.3rem .6rem;border-bottom:1px solid #ddd;font-size:.85rem}
th{color:#555;font-weight:600}
.num{text-align:right;font-variant-numeric:tabular-nums}
.badge{display:inline-block;padding:.15rem .6rem;border-radius:.3rem;color:#fff;font-weight:600}
.ok{background:#2a7d2a}.degraded{background:#c77d00}.unhealthy{background:#b3261e}.grey{background:#888}
.spark{color:#3366cc;vertical-align:middle}
.active{color:#b3261e;font-weight:600}
.muted{color:#888}
nav a{margin-right:1rem}
</style>`

// BuildLine is the build identity every dashboard shows beside its badge.
func BuildLine(up time.Duration, more string) HTML {
	return Span("muted", fmt.Sprintf("version %s · %s · up %s%s", Version, runtime.Version(), up.Truncate(time.Second), more))
}

// findingTable adds findings to a page: a verdict's reasons and the
// retained findings are one record and one table.
func findingTable(p *Page, caption string, fs []HealthFinding) {
	var rows [][]any
	for _, f := range fs {
		signal := any(f.Signal)
		if f.Critical {
			signal = Span("active", f.Signal)
		}
		rows = append(rows, []any{f.Time.Format("15:04:05"), signal, f.Kind, f.Value, f.Pred, f.Residual, f.Delta, f.NIS, f.TicksAgo})
	}
	p.Table(caption, []string{"time", "signal", "kind", "value", "pred", "residual", "δ", "NIS", "ticks ago"}, rows)
}

// StatuszHandler serves the self-monitoring dashboard: verdict badge,
// build identity, active findings, and the per-signal table with
// sparklines. Degrades gracefully to a pointer page when
// self-monitoring is off.
func StatuszHandler(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		p := NewPage("DKF server status", "/metrics", "/metricsz", "/streamz", "/tracez", "/healthz?verbose=1", "/debug/pprof/")
		defer p.Serve(w)
		h := s.Health()
		p.Line("Verdict:", Badge(h.Status), BuildLine(time.Duration(h.UptimeSeconds*float64(time.Second)), ""))
		m := s.SelfMon()
		if m == nil {
			p.Line(Span("muted", "Self-monitoring is off — start the server with -selfmon for verdicts, findings and sparklines."))
			return
		}
		findingTable(p, "Active reasons", h.Reasons)

		var rows [][]any
		for _, sig := range m.Signals() {
			name, state := sig.Name, HTML("ok")
			if sig.Critical {
				name += " *"
			}
			switch {
			case sig.Active:
				state = Span("active", "active")
			case !sig.Fed:
				state = Span("muted", "idle")
			}
			rows = append(rows, []any{name, sparklineSVG(sig.Samples, 120, 24), sig.Value, sig.Delta, sig.Model, sig.Updates, sig.Suppressed, state, Span("muted", sig.Help)})
		}
		p.Table("Signals", []string{"signal", "trend", "value", "δ", "model", "updates", "suppressed", "state", "what"}, rows)
		p.Line(Span("muted", "* critical signal — active findings make the verdict unhealthy. updates = δ-violating transmissions (incl. bootstrap), suppressed = readings the self-model predicted within δ."))

		findings := m.Findings(20)
		findingTable(p, "Recent findings", findings)
		if len(findings) == 0 {
			p.Line(Span("muted", "No recent findings — the server matches its own model."))
		}
		slots, filled, every, span, dropped := m.History().Meta()
		p.Line(Span("muted", fmt.Sprintf("history ring: %d/%d slots · every %s · span %s · %d series dropped past cap", filled, slots, every, span.Truncate(time.Second), dropped)))
	}
}
