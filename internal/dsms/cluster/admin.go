package cluster

import (
	"log/slog"
	"net/http"
	"strconv"

	"streamkf/internal/dsms"
)

// Router admin endpoints, mirroring the shard server's admin surface
// (internal/dsms/admin.go):
//
//	/metrics            Prometheus text exposition of the router registry
//	/healthz            rolled-up cluster verdict: ok|degraded|unhealthy (?verbose=1 for JSON)
//	/clusterz           the federated fleet view: the Clusterz document
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
		mux.HandleFunc("/clusterz", func(w http.ResponseWriter, req *http.Request) {
			dsms.WriteJSON(w, http.StatusOK, r.Clusterz())
		})
		mux.HandleFunc("/eventz", EventzHandler(r))
		mux.HandleFunc("/tracez", dsms.TracezHandler(r.TraceEnabled, r.TraceRecent))
		mux.HandleFunc("/tracez/stream/", dsms.TracezStreamHandler(r.TraceStream))
	})
}
