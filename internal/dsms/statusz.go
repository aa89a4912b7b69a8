package dsms

import (
	"fmt"
	"html"
	"net/http"
	"runtime"
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
			switch info.Kind {
			case telemetry.SeriesCounter, telemetry.SeriesHistogram:
				if r, ok := ring.Rate(info.Name, window, info.Labels...); ok {
					out.RatePerSec = &r
				}
				if info.Kind == telemetry.SeriesHistogram {
					if q, ok := ring.WindowQuantile(info.Name, window, 0.50, info.Labels...); ok {
						out.P50 = &q
					}
					if q, ok := ring.WindowQuantile(info.Name, window, 0.99, info.Labels...); ok {
						out.P99 = &q
					}
				}
			}
			resp.Series = append(resp.Series, out)
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// sparklineSVG renders samples as an inline SVG polyline, oldest to
// newest, auto-scaled to the sample range. Empty input renders an
// empty frame.
func sparklineSVG(samples []float64, w, h int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" preserveAspectRatio="none" class="spark">`, w, h, w, h)
	if len(samples) >= 2 {
		lo, hi := samples[0], samples[0]
		for _, v := range samples {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		span := hi - lo
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
	return b.String()
}

// AdminStyle is the inline stylesheet of every admin dashboard, shard
// server and router alike.
const AdminStyle = `<style>
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

// StatuszHandler serves the self-monitoring dashboard: verdict badge,
// build identity, active findings, and the per-signal table with
// sparklines. Degrades gracefully to a pointer page when
// self-monitoring is off.
func StatuszHandler(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		var b strings.Builder
		b.WriteString("<!DOCTYPE html><html><head><title>dkf statusz</title>")
		b.WriteString(AdminStyle)
		b.WriteString("</head><body><h1>DKF server status</h1>")
		b.WriteString(`<nav><a href="/metrics">/metrics</a><a href="/metricsz">/metricsz</a><a href="/streamz">/streamz</a><a href="/tracez">/tracez</a><a href="/healthz?verbose=1">/healthz</a><a href="/debug/pprof/">/debug/pprof</a></nav>`)

		h := s.Health()
		fmt.Fprintf(&b, `<p>Verdict: <span class="badge %s">%s</span>`, h.Status, h.Status)
		fmt.Fprintf(&b, ` <span class="muted">version %s · %s · up %s</span></p>`,
			html.EscapeString(Version), runtime.Version(), time.Duration(h.UptimeSeconds*float64(time.Second)).Truncate(time.Second))

		m := s.SelfMon()
		if m == nil {
			b.WriteString(`<p class="muted">Self-monitoring is off — start the server with <code>-selfmon</code> for verdicts, findings and sparklines.</p></body></html>`)
			fmt.Fprint(w, b.String())
			return
		}

		if len(h.Reasons) > 0 {
			b.WriteString("<h2>Active reasons</h2><table><tr><th>signal</th><th>kind</th><th class=num>value</th><th class=num>pred</th><th class=num>residual</th><th class=num>δ</th><th class=num>ticks ago</th></tr>")
			for _, r := range h.Reasons {
				cls := ""
				if r.Critical {
					cls = ` class="active"`
				}
				fmt.Fprintf(&b, `<tr><td%s>%s</td><td>%s</td><td class=num>%.4g</td><td class=num>%.4g</td><td class=num>%.4g</td><td class=num>%.4g</td><td class=num>%d</td></tr>`,
					cls, html.EscapeString(r.Signal), r.Kind, r.Value, r.Pred, r.Residual, r.Delta, r.TicksAgo)
			}
			b.WriteString("</table>")
		}

		b.WriteString("<h2>Signals</h2><table><tr><th>signal</th><th>trend</th><th class=num>value</th><th class=num>δ</th><th>model</th><th class=num>updates</th><th class=num>suppressed</th><th>state</th></tr>")
		for _, sig := range m.Signals() {
			state := "ok"
			cls := ""
			switch {
			case sig.Active:
				state, cls = "active", ` class="active"`
			case !sig.Fed:
				state, cls = "idle", ` class="muted"`
			}
			title := html.EscapeString(sig.Help)
			crit := ""
			if sig.Critical {
				crit = " *"
			}
			fmt.Fprintf(&b, `<tr><td title="%s">%s%s</td><td>%s</td><td class=num>%.4g</td><td class=num>%.4g</td><td>%s</td><td class=num>%d</td><td class=num>%d</td><td%s>%s</td></tr>`,
				title, html.EscapeString(sig.Name), crit, sparklineSVG(sig.Samples, 120, 24),
				sig.Value, sig.Delta, sig.Model, sig.Updates, sig.Suppressed, cls, state)
		}
		b.WriteString(`</table><p class="muted">* critical signal — active findings make the verdict unhealthy. updates = δ-violating transmissions (incl. bootstrap), suppressed = readings the self-model predicted within δ.</p>`)

		findings := m.Findings(20)
		b.WriteString("<h2>Recent findings</h2>")
		if len(findings) == 0 {
			b.WriteString(`<p class="muted">None — the server matches its own model.</p>`)
		} else {
			b.WriteString("<table><tr><th>time</th><th>signal</th><th>kind</th><th class=num>value</th><th class=num>pred</th><th class=num>residual</th><th class=num>δ</th><th class=num>NIS</th></tr>")
			for _, f := range findings {
				fmt.Fprintf(&b, `<tr><td>%s</td><td>%s</td><td>%s</td><td class=num>%.4g</td><td class=num>%.4g</td><td class=num>%.4g</td><td class=num>%.4g</td><td class=num>%.3g</td></tr>`,
					f.Time.Format("15:04:05"), html.EscapeString(f.Signal), f.Kind, f.Value, f.Pred, f.Residual, f.Delta, f.NIS)
			}
			b.WriteString("</table>")
		}

		slots, filled, every, span, dropped := m.History().Meta()
		fmt.Fprintf(&b, `<p class="muted">history ring: %d/%d slots · every %s · span %s`, filled, slots, every, span.Truncate(time.Second))
		if dropped > 0 {
			fmt.Fprintf(&b, ` · %d series dropped past cap`, dropped)
		}
		b.WriteString("</p></body></html>")
		fmt.Fprint(w, b.String())
	}
}
