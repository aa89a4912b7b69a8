package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"streamkf/internal/dsms"
)

// Router admin endpoints, mirroring the shard server's admin surface
// (internal/dsms/admin.go):
//
//	/metrics            Prometheus text exposition of the router registry
//	/healthz            rolled-up cluster verdict: ok|degraded|unhealthy (?verbose=1 for JSON)
//	/statusz            cluster dashboard (HTML): the fleet view under the router's title
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
		limit := 0
		if v := req.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				http.Error(w, "bad limit: "+v, http.StatusBadRequest)
				return
			}
			limit = n
		}
		evs, total := r.events.Events(limit)
		dsms.WriteJSON(w, http.StatusOK, eventzResponse{Total: total, Count: len(evs), Events: evs})
	}
}

// FleetHandler serves the router's dashboard under title — /statusz and
// /clusterz are one page: the cluster verdict badge, build identity, the
// fleet table, the ring's counts and recent topology events — or, with
// ?format=json, the Clusterz document.
func FleetHandler(r *Router, title string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		cz := r.Clusterz()
		if req.URL.Query().Get("format") == "json" {
			dsms.WriteJSON(w, http.StatusOK, cz)
			return
		}
		p := dsms.NewPage(title, "/metrics", "/clusterz", "/ringz", "/eventz", "/tracez", "/healthz?verbose=1", "/debug/pprof/")
		p.Line("Cluster:", dsms.Badge(cz.Status), dsms.BuildLine(time.Since(telEpoch),
			fmt.Sprintf(" · epoch %d · %d migrations · %d topology events", cz.Epoch, cz.MigrationsTotal, cz.EventsTotal)))
		var rows [][]any
		for _, sh := range cz.Shards {
			conn := dsms.HTML("up")
			if !sh.Connected {
				conn = dsms.Span("active", "down")
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
			rows = append(rows, []any{sh.Shard, sh.Addr, sh.Admin, conn, dsms.Badge(sh.Status),
				time.Duration(sh.UptimeSeconds * float64(time.Second)).Truncate(time.Second).String(),
				sh.IngestRatePerSec, sh.ShedRatePerSec, sh.ErrorRatePerSec, age,
				sh.Routes, sh.PendingUpdates, sh.ForwardedTotal, dsms.Span("muted", detail)})
		}
		p.Table("Shards", []string{"shard", "addr", "admin", "conn", "verdict", "up", "ingest/s", "shed/s", "errors/s", "ckpt age", "routes", "pending", "forwarded", "detail"}, rows)
		z := r.RingzSnapshot()
		p.Line(dsms.Span("muted", fmt.Sprintf("%d routes · %d pins · %d aggregates · trace %v", z.Routes, len(z.Pins), len(z.Aggregates), r.TraceEnabled())))

		evs, total := r.events.Events(20)
		rows = nil
		for _, ev := range evs {
			dur := ""
			if ev.DurMs > 0 {
				dur = fmt.Sprintf("%.2f", ev.DurMs)
			}
			rows = append(rows, []any{time.Unix(0, ev.At).UTC().Format("15:04:05.000"), ev.Kind, ev.Shard, ev.SourceID, ev.Detail, dur})
		}
		p.Table(fmt.Sprintf("Topology events (%d of %d)", len(evs), total), []string{"when", "kind", "shard", "stream", "detail", "ms"}, rows)
		p.Serve(w)
	}
}

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
		mux.HandleFunc("/statusz", FleetHandler(r, "DKF router status"))
		mux.HandleFunc("/clusterz", FleetHandler(r, "DKF cluster fleet"))
		mux.HandleFunc("/eventz", EventzHandler(r))
		mux.HandleFunc("/tracez", dsms.TracezHandler(r.TraceEnabled, r.TraceRecent))
		mux.HandleFunc("/tracez/stream/", dsms.TracezStreamHandler(r.TraceStream))
	})
}
