package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"streamkf/internal/dsms"
)

// Federated fleet view: the router polls each shard's admin endpoint
// (/healthz?verbose=1, /metricsz, /streamz) on demand — per /clusterz
// request, no background goroutine, so tests and scrapes see a
// deterministic snapshot — and folds the results into one cluster
// document with a rolled-up verdict. A shard whose admin endpoint is
// unreachable degrades the cluster but does not fail the scrape: the
// router still knows whether the shard's data-plane connection is
// alive, which is the half that matters for ingest.

// adminClient fetches shard admin documents. The timeout bounds a
// /clusterz render when a shard's admin port blackholes.
var adminClient = &http.Client{Timeout: 3 * time.Second}

// fetchJSON GETs http://addr+path and decodes the JSON body into v.
// 503 responses are decoded too: /healthz serves its verdict document
// with that status when unhealthy, and /metricsz uses it when
// self-monitoring is off.
func fetchJSON(addr, path string, v any) error {
	resp, err := adminClient.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("%s%s: %s", addr, path, resp.Status)
	}
	return json.Unmarshal(body, v)
}

// shardAdmin returns the admin address configured for a shard, or "".
func (r *Router) shardAdmin(shard int) string {
	if shard < 0 || shard >= len(r.opts.ShardAdmins) {
		return ""
	}
	return r.opts.ShardAdmins[shard]
}

// metricszDoc mirrors the subset of the shard /metricsz document the
// fleet view consumes (the full shape lives in dsms/statusz.go).
type metricszDoc struct {
	Series []struct {
		Name       string            `json:"name"`
		Labels     map[string]string `json:"labels,omitempty"`
		Value      float64           `json:"value"`
		RatePerSec *float64          `json:"rate_per_sec,omitempty"`
	} `json:"series"`
}

// ShardHealth is one shard's row in the /clusterz document.
type ShardHealth struct {
	Shard     int    `json:"shard"`
	Addr      string `json:"addr"`
	Admin     string `json:"admin,omitempty"`
	Connected bool   `json:"connected"`
	// Status is the shard's selfmon verdict: ok | degraded | unhealthy,
	// or "unreachable" when the admin endpoint could not be polled and
	// "unknown" when no admin endpoint is configured.
	Status        string              `json:"status"`
	UptimeSeconds float64             `json:"uptime_seconds,omitempty"`
	Reasons       []dsms.HealthReason `json:"reasons,omitempty"`

	IngestRatePerSec float64 `json:"ingest_rate_per_sec"`
	ShedRatePerSec   float64 `json:"shed_rate_per_sec"`
	ErrorRatePerSec  float64 `json:"error_rate_per_sec"`
	// WALCheckpointAgeSeconds is -1 when unknown (no admin, no WAL, or
	// no checkpoint yet).
	WALCheckpointAgeSeconds float64 `json:"wal_checkpoint_age_seconds"`

	// Router-side route occupancy for this shard.
	Routes         int   `json:"routes"`
	PendingUpdates int   `json:"pending_updates"`
	ForwardedTotal int64 `json:"forwarded_total"`

	Error string `json:"error,omitempty"`
}

// Clusterz is the cluster fleet document: per-shard health plus the
// rolled-up verdict the router's own /healthz reports.
type Clusterz struct {
	Status          string        `json:"status"`
	Epoch           int64         `json:"epoch"`
	Shards          []ShardHealth `json:"shards"`
	MigrationsTotal int64         `json:"migrations_total"`
	EventsTotal     uint64        `json:"events_total"`
}

// Clusterz assembles the fleet document by polling every shard's admin
// endpoint. Rollup rules, strictest wins: a dead upstream connection
// or an unhealthy shard verdict makes the cluster unhealthy; a
// degraded shard or an unreachable/unconfigured admin endpoint makes
// it degraded; otherwise ok.
func (r *Router) Clusterz() Clusterz {
	// Route occupancy per shard, gathered once.
	type occ struct{ routes, pending int }
	occs := make([]occ, len(r.upstreams))
	for _, rt := range r.allRoutes() {
		rt.pendMu.Lock()
		pend := len(rt.pending)
		rt.pendMu.Unlock()
		rt.mu.Lock()
		shard := rt.shard
		rt.mu.Unlock()
		if shard >= 0 && shard < len(occs) {
			occs[shard].routes++
			occs[shard].pending += pend
		}
	}

	out := Clusterz{Status: "ok", Epoch: r.ring.Epoch()}
	if v, ok := r.tel.reg.Get("dkf_router_migrations_total"); ok {
		out.MigrationsTotal = int64(v)
	}
	_, out.EventsTotal = r.events.Events()

	worst := 0 // 0 ok, 1 degraded, 2 unhealthy
	bump := func(level int) {
		if level > worst {
			worst = level
		}
	}
	for i, up := range r.upstreams {
		up.mu.Lock()
		alive := up.alive
		up.mu.Unlock()
		sh := ShardHealth{
			Shard: i, Addr: up.addr, Admin: r.shardAdmin(i),
			Connected: alive, Status: "unknown",
			WALCheckpointAgeSeconds: -1,
			Routes:                  occs[i].routes,
			PendingUpdates:          occs[i].pending,
			ForwardedTotal:          r.tel.forwarded[i].Value(),
		}
		if !alive {
			bump(2)
		}
		if sh.Admin == "" {
			sh.Error = "no admin endpoint configured"
			bump(1)
			out.Shards = append(out.Shards, sh)
			continue
		}
		var h dsms.HealthStatus
		if err := fetchJSON(sh.Admin, "/healthz?verbose=1", &h); err != nil {
			sh.Status = "unreachable"
			sh.Error = err.Error()
			bump(1)
			out.Shards = append(out.Shards, sh)
			continue
		}
		sh.Status = h.Status
		sh.UptimeSeconds = h.UptimeSeconds
		sh.Reasons = h.Reasons
		switch h.Status {
		case "unhealthy":
			bump(2)
		case "degraded":
			bump(1)
		}
		// Rates are best-effort: /metricsz is 503-with-JSON when the
		// shard runs without self-monitoring, leaving the rates zero.
		var m metricszDoc
		if err := fetchJSON(sh.Admin, "/metricsz", &m); err == nil {
			for _, s := range m.Series {
				if s.RatePerSec == nil {
					continue
				}
				switch s.Name {
				case "dkf_server_updates_total":
					sh.IngestRatePerSec += *s.RatePerSec
				case "dkf_engine_ring_dropped_total":
					sh.ShedRatePerSec += *s.RatePerSec
				case "dkf_wire_errors_total":
					sh.ErrorRatePerSec += *s.RatePerSec
				}
			}
		}
		var z dsms.Streamz
		if err := fetchJSON(sh.Admin, "/streamz", &z); err == nil && z.WAL != nil {
			sh.WALCheckpointAgeSeconds = z.WAL.CheckpointAgeSeconds
		}
		out.Shards = append(out.Shards, sh)
	}
	switch worst {
	case 2:
		out.Status = "unhealthy"
	case 1:
		out.Status = "degraded"
	}
	return out
}

// traceStreamPath builds the shard admin path for one stream's trail.
func traceStreamPath(id string) string {
	return "/tracez/stream/" + url.PathEscape(id)
}
