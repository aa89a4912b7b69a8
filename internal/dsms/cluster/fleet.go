package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"streamkf/internal/dsms"
)

// Federated fleet view: the router fetches each shard's status document
// (/healthz?verbose=1 — verdict, reasons, self-signal values, checkpoint
// age: a few hundred bytes whatever the shard's stream count) on demand —
// per /clusterz request, no background goroutine, so tests and scrapes
// see a deterministic snapshot — and folds the results into one cluster
// document with a rolled-up verdict. A shard whose admin endpoint is
// unreachable degrades the cluster but does not fail the scrape: the
// router still knows whether the shard's data-plane connection is
// alive, which is the half that matters for ingest.

// adminClient fetches shard admin documents. The timeout bounds a
// /clusterz render when a shard's admin port blackholes.
var adminClient = &http.Client{Timeout: 3 * time.Second}

// maxAdminBody bounds a fetched shard document. Both kinds are small — a
// status document is a few hundred bytes, a stream's trail its ring of
// events at some 200 bytes each — so a body past this is not one.
const maxAdminBody = 8 << 20

// fetchJSON GETs http://addr+path and decodes the JSON body into v.
// 503 responses are decoded too: /healthz serves its status document
// with that status when unhealthy. A body past maxAdminBody is an error
// naming the limit, never a truncated decode.
func fetchJSON(addr, path string, v any) error {
	resp, err := adminClient.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// To EOF when within the limit, so the connection is kept for the next poll.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxAdminBody+1))
	if err != nil {
		return err
	}
	if len(body) > maxAdminBody {
		return fmt.Errorf("%s%s: body exceeds the %d-byte limit", addr, path, maxAdminBody)
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

	// The shard's ingest_rate, shed_rate and wire_error_rate self-signals
	// (over its self-monitor's rate window); zero without -selfmon.
	IngestRatePerSec float64 `json:"ingest_rate_per_sec"`
	ShedRatePerSec   float64 `json:"shed_rate_per_sec"`
	ErrorRatePerSec  float64 `json:"error_rate_per_sec"`
	// WALCheckpointAgeSeconds is -1 when unknown (no admin, no WAL, or
	// no checkpoint yet).
	WALCheckpointAgeSeconds float64 `json:"wal_checkpoint_age_seconds"`

	// Router-side route occupancy for this shard.
	Routes         int   `json:"routes"`
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

// Clusterz assembles the fleet document from one fetch of every shard's
// status document. Rollup rules, strictest wins: a dead upstream connection
// or an unhealthy shard verdict makes the cluster unhealthy; a
// degraded shard or an unreachable/unconfigured admin endpoint makes
// it degraded; otherwise ok.
func (r *Router) Clusterz() Clusterz {
	// Routes per shard, counted once.
	routes := make([]int, len(r.upstreams))
	for _, rt := range r.allRoutes() {
		rt.mu.Lock()
		routes[rt.shard]++
		rt.mu.Unlock()
	}

	out := Clusterz{Status: "ok", Epoch: r.ring.Epoch()}
	if v, ok := r.tel.reg.Get("dkf_router_migrations_total"); ok {
		out.MigrationsTotal = int64(v)
	}
	_, out.EventsTotal = r.events.Events(1)

	worst := 0 // an index into dsms.Verdicts
	for i, up := range r.upstreams {
		up.mu.Lock()
		alive := up.alive
		up.mu.Unlock()
		sh := ShardHealth{
			Shard: i, Addr: up.addr, Admin: r.shardAdmin(i),
			Connected: alive, Status: "unknown",
			WALCheckpointAgeSeconds: -1,
			Routes:                  routes[i],
			ForwardedTotal:          r.tel.forwarded[i].Value(),
		}
		if !alive {
			worst = 2
		}
		var h dsms.HealthStatus
		if sh.Admin == "" {
			sh.Error = "no admin endpoint configured"
			worst = max(worst, 1)
		} else if err := fetchJSON(sh.Admin, "/healthz?verbose=1", &h); err != nil {
			sh.Status, sh.Error = "unreachable", err.Error()
			worst = max(worst, 1)
		} else {
			sh.Status, sh.UptimeSeconds, sh.Reasons = h.Status, h.UptimeSeconds, h.Reasons
			sh.IngestRatePerSec, sh.ShedRatePerSec, sh.ErrorRatePerSec = h.Signals["ingest_rate"], h.Signals["shed_rate"], h.Signals["wire_error_rate"]
			sh.WALCheckpointAgeSeconds = h.WALCheckpointAgeSeconds
			worst = max(worst, slices.Index(dsms.Verdicts[:], h.Status))
		}
		out.Shards = append(out.Shards, sh)
	}
	out.Status = dsms.Verdicts[worst]
	return out
}
