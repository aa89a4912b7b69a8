package cluster

import (
	"fmt"
	"html"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"streamkf/internal/dsms"
)

// Router admin endpoints, mirroring the shard server's admin surface
// (internal/dsms/admin.go):
//
//	/metrics            Prometheus text exposition of the router registry
//	/healthz            rolled-up cluster verdict: ok|degraded|unhealthy (?verbose=1 for JSON)
//	/statusz            cluster dashboard (HTML)
//	/clusterz           federated fleet view (HTML; ?format=json for the document)
//	/ringz              the placement picture: epoch, shards, pins, routes
//	/eventz             the topology event log, newest first (?limit=)
//	/tracez             recent forwarding trace events (?source=&kind=&decision=&limit=)
//	/tracez/stream/{id} spliced source→router→shard trail for one stream
//	/debug/pprof/*      the standard Go profiling endpoints
//
// Every response carries Cache-Control: no-store — these are live
// state, and a cached cluster verdict is worse than none.

// Ringz is the /ringz document: the topology as this router sees it.
type Ringz struct {
	Epoch      int64          `json:"epoch"`
	VNodes     int            `json:"vnodes"`
	Shards     []RingzShard   `json:"shards"`
	Pins       map[string]int `json:"pins,omitempty"`
	Routes     int            `json:"routes"`
	Aggregates []string       `json:"aggregates,omitempty"`
}

// RingzShard is one shard's row in /ringz.
type RingzShard struct {
	Index int    `json:"index"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
}

// RingzSnapshot builds the /ringz document.
func (r *Router) RingzSnapshot() Ringz {
	r.ring.mu.RLock()
	z := Ringz{Epoch: r.ring.epoch, VNodes: r.ring.vnodes}
	if len(r.ring.pins) > 0 {
		z.Pins = make(map[string]int, len(r.ring.pins))
		for id, s := range r.ring.pins {
			z.Pins[id] = s
		}
	}
	r.ring.mu.RUnlock()
	for _, up := range r.upstreams {
		up.mu.Lock()
		z.Shards = append(z.Shards, RingzShard{Index: up.shard, Addr: up.addr, Alive: up.alive})
		up.mu.Unlock()
	}
	r.routeMu.RLock()
	z.Routes = len(r.byIdx)
	r.routeMu.RUnlock()
	r.regMu.Lock()
	for id := range r.aggs {
		z.Aggregates = append(z.Aggregates, id)
	}
	r.regMu.Unlock()
	return z
}

// eventzResponse is the /eventz document.
type eventzResponse struct {
	// Total counts every event ever recorded; Events holds the newest
	// Count of them still in the ring.
	Total  uint64      `json:"total"`
	Count  int         `json:"count"`
	Events []TopoEvent `json:"events"`
}

// EventzHandler serves the topology event log, newest first.
// Parameters: limit (default: the whole ring).
func EventzHandler(r *Router) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		evs, total := r.events.Events()
		if v := req.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				http.Error(w, "bad limit: "+v, http.StatusBadRequest)
				return
			}
			if n < len(evs) {
				evs = evs[:n]
			}
		}
		dsms.WriteJSON(w, http.StatusOK, eventzResponse{Total: total, Count: len(evs), Events: evs})
	}
}

// ClusterzHandler serves the federated fleet view: HTML by default,
// the JSON document with ?format=json.
func ClusterzHandler(r *Router) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		cz := r.Clusterz()
		if req.URL.Query().Get("format") == "json" {
			dsms.WriteJSON(w, http.StatusOK, cz)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		var b strings.Builder
		b.WriteString("<!DOCTYPE html><html><head><title>dkf clusterz</title>")
		b.WriteString(dsms.AdminStyle)
		b.WriteString("</head><body><h1>DKF cluster fleet</h1>")
		b.WriteString(routerNav)
		fmt.Fprintf(&b, `<p>Cluster: <span class="badge %s">%s</span> <span class="muted">epoch %d · %d migrations · %d topology events</span></p>`,
			badgeClass(cz.Status), cz.Status, cz.Epoch, cz.MigrationsTotal, cz.EventsTotal)
		b.WriteString("<h2>Shards</h2><table><tr><th class=num>shard</th><th>addr</th><th>conn</th><th>verdict</th><th class=num>up</th><th class=num>ingest/s</th><th class=num>shed/s</th><th class=num>errors/s</th><th class=num>ckpt age</th><th class=num>routes</th><th class=num>pending</th><th class=num>forwarded</th><th>detail</th></tr>")
		for _, sh := range cz.Shards {
			conn := "up"
			if !sh.Connected {
				conn = `<span class="active">down</span>`
			}
			age := "—"
			if sh.WALCheckpointAgeSeconds >= 0 {
				age = fmt.Sprintf("%.1fs", sh.WALCheckpointAgeSeconds)
			}
			detail := sh.Error
			for _, reason := range sh.Reasons {
				if detail != "" {
					detail += "; "
				}
				detail += reason.Signal
			}
			fmt.Fprintf(&b, `<tr><td class=num>%d</td><td>%s</td><td>%s</td><td><span class="badge %s">%s</span></td><td class=num>%s</td><td class=num>%.3g</td><td class=num>%.3g</td><td class=num>%.3g</td><td class=num>%s</td><td class=num>%d</td><td class=num>%d</td><td class=num>%d</td><td class="muted">%s</td></tr>`,
				sh.Shard, html.EscapeString(sh.Addr), conn, badgeClass(sh.Status), sh.Status,
				(time.Duration(sh.UptimeSeconds * float64(time.Second))).Truncate(time.Second),
				sh.IngestRatePerSec, sh.ShedRatePerSec, sh.ErrorRatePerSec, age,
				sh.Routes, sh.PendingUpdates, sh.ForwardedTotal, html.EscapeString(detail))
		}
		b.WriteString("</table>")
		writeEventTable(&b, r, 20)
		b.WriteString("</body></html>")
		fmt.Fprint(w, b.String())
	}
}

// badgeClass maps a verdict to its dashboard badge style; statuses the
// stylesheet doesn't know (unreachable, unknown) render grey.
func badgeClass(status string) string {
	switch status {
	case "ok", "degraded", "unhealthy":
		return status
	}
	return "grey"
}

// writeEventTable appends the newest topology events to an HTML page.
func writeEventTable(b *strings.Builder, r *Router, limit int) {
	evs, total := r.events.Events()
	if len(evs) > limit {
		evs = evs[:limit]
	}
	if len(evs) == 0 {
		return
	}
	fmt.Fprintf(b, `<h2>Topology events <span class="muted">(%d of %d)</span></h2>`, len(evs), total)
	b.WriteString("<table><tr><th>when</th><th>kind</th><th class=num>shard</th><th>stream</th><th>detail</th><th class=num>ms</th></tr>")
	for _, ev := range evs {
		dur := ""
		if ev.DurMs > 0 {
			dur = fmt.Sprintf("%.2f", ev.DurMs)
		}
		fmt.Fprintf(b, `<tr><td class="muted">%s</td><td>%s</td><td class=num>%d</td><td>%s</td><td class="muted">%s</td><td class=num>%s</td></tr>`,
			time.Unix(0, ev.At).UTC().Format("15:04:05.000"), html.EscapeString(ev.Kind), ev.Shard,
			html.EscapeString(ev.SourceID), html.EscapeString(ev.Detail), dur)
	}
	b.WriteString("</table>")
}

// StatuszHandler serves the router dashboard: the cluster verdict
// badge, build identity, the ring picture, and recent topology events.
func StatuszHandler(r *Router) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		var b strings.Builder
		b.WriteString("<!DOCTYPE html><html><head><title>dkf router statusz</title>")
		b.WriteString(dsms.AdminStyle)
		b.WriteString("</head><body><h1>DKF router status</h1>")
		b.WriteString(routerNav)

		cz := r.Clusterz()
		fmt.Fprintf(&b, `<p>Cluster: <span class="badge %s">%s</span>`, badgeClass(cz.Status), cz.Status)
		fmt.Fprintf(&b, ` <span class="muted">version %s · %s · up %s · epoch %d</span></p>`,
			html.EscapeString(dsms.Version), runtime.Version(),
			time.Since(telEpoch).Truncate(time.Second), cz.Epoch)

		z := r.RingzSnapshot()
		b.WriteString("<h2>Ring</h2><table><tr><th class=num>shard</th><th>addr</th><th>admin</th><th>conn</th><th>verdict</th><th class=num>routes</th><th class=num>pending</th></tr>")
		for i, s := range z.Shards {
			conn := "up"
			if !s.Alive {
				conn = `<span class="active">down</span>`
			}
			verdict, routes, pending := "unknown", 0, 0
			if i < len(cz.Shards) {
				verdict, routes, pending = cz.Shards[i].Status, cz.Shards[i].Routes, cz.Shards[i].PendingUpdates
			}
			fmt.Fprintf(&b, `<tr><td class=num>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td class=num>%d</td><td class=num>%d</td></tr>`,
				s.Index, html.EscapeString(s.Addr), html.EscapeString(r.shardAdmin(s.Index)),
				conn, verdict, routes, pending)
		}
		b.WriteString("</table>")
		fmt.Fprintf(&b, `<p class="muted">%d routes · %d pins · %d aggregates · trace %v</p>`,
			z.Routes, len(z.Pins), len(z.Aggregates), r.TraceEnabled())
		writeEventTable(&b, r, 20)
		b.WriteString("</body></html>")
		fmt.Fprint(w, b.String())
	}
}

// routerNav is the shared dashboard navigation bar.
const routerNav = `<nav><a href="/metrics">/metrics</a><a href="/clusterz">/clusterz</a><a href="/ringz">/ringz</a><a href="/eventz">/eventz</a><a href="/tracez">/tracez</a><a href="/healthz?verbose=1">/healthz</a><a href="/debug/pprof/">/debug/pprof</a></nav>`

// ServeAdmin starts the router admin endpoint on addr: the router's
// own handlers mounted on the shard server's admin kit, so /tracez is
// shaped like the shard server's and one scraper reads both.
func ServeAdmin(r *Router, addr string, logger *slog.Logger) (*dsms.AdminServer, error) {
	return dsms.StartAdmin(addr, logger, func(mux *http.ServeMux) {
		mux.HandleFunc("/metrics", dsms.MetricsHandler(r.Telemetry()))
		mux.HandleFunc("/ringz", func(w http.ResponseWriter, req *http.Request) {
			dsms.WriteJSON(w, http.StatusOK, r.RingzSnapshot())
		})
		// The rolled-up verdict (dsms.WriteHealthz): unhealthy means a dead
		// upstream data connection or an unhealthy shard; ?verbose=1 is
		// the /clusterz document. Each probe polls the shard admin
		// endpoints, so the probe interval bounds federation staleness.
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
			cz := r.Clusterz()
			dsms.WriteHealthz(w, req, cz.Status, cz)
		})
		mux.HandleFunc("/statusz", StatuszHandler(r))
		mux.HandleFunc("/clusterz", ClusterzHandler(r))
		mux.HandleFunc("/eventz", EventzHandler(r))
		mux.HandleFunc("/tracez", dsms.TracezHandler(r.TraceEnabled, r.TraceRecent))
		mux.HandleFunc("/tracez/stream/", dsms.TracezStreamHandler(r.TraceStream))
	})
}
