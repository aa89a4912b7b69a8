package cluster

import (
	"runtime"
	"strconv"
	"time"

	"streamkf/internal/dsms"
	"streamkf/internal/telemetry"
)

// Router telemetry. Counters and histograms are per-shard where the
// shard dimension matters for capacity decisions: forwards and forward
// latency tell the operator which shard is hot, the connection gauges
// whether the router has lost an upstream.

// telEpoch anchors the monotonic clock used for forward-latency
// stamps; only differences are ever observed.
var telEpoch = time.Now()

func nowNanos() int64 { return int64(time.Since(telEpoch)) }

type routerTelemetry struct {
	reg *telemetry.Registry

	// Indexed by shard.
	forwarded  []*telemetry.Counter
	fwdLatency []*telemetry.Histogram

	upstreamConns *telemetry.Gauge
	downConns     *telemetry.Gauge
	helloTotal    *telemetry.Counter
	aggAnswers    *telemetry.Counter
	aggSuppressed *telemetry.Counter
	migrations    *telemetry.Counter
	reconnects    *telemetry.Counter

	// Per-hop latency attribution for traced forwards: stage="router"
	// is trace-frame receipt to forward write (time spent inside the
	// router), stage="shard" is forward write to shard ack (wire +
	// shard apply). Observed in nanoseconds, exposed in seconds.
	hopRouter *telemetry.Histogram
	hopShard  *telemetry.Histogram
}

func newRouterTelemetry(shards int) *routerTelemetry {
	reg := telemetry.NewRegistry()
	t := &routerTelemetry{
		reg:        reg,
		forwarded:  make([]*telemetry.Counter, shards),
		fwdLatency: make([]*telemetry.Histogram, shards),
	}
	// Build identity and uptime, matching the server's admin surface so
	// a fleet scrape names every binary uniformly.
	reg.Gauge("dkf_build_info", "Build identity; the value is always 1.",
		telemetry.L("version", dsms.Version), telemetry.L("goversion", runtime.Version())).Set(1)
	reg.GaugeFunc("dkf_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(telEpoch).Seconds() })
	for i := 0; i < shards; i++ {
		lbl := telemetry.L("shard", strconv.Itoa(i))
		t.forwarded[i] = reg.Counter("dkf_router_forwarded_total",
			"Updates forwarded to the owning shard.", lbl)
		t.fwdLatency[i] = reg.Histogram("dkf_router_forward_latency_nanos",
			"Forward round-trip, update written upstream to shard ack received: sampled, one stamp per route per ack round trip.", lbl)
	}
	t.upstreamConns = reg.Gauge("dkf_router_upstream_conns",
		"Live upstream shard connections.")
	t.downConns = reg.Gauge("dkf_router_downstream_conns",
		"Live downstream source connections.")
	t.helloTotal = reg.Counter("dkf_router_hello_total",
		"Source hello handshakes relayed to shards.")
	t.aggAnswers = reg.Counter("dkf_router_aggregate_answers_total",
		"Cross-shard aggregate answers merged from shard partials.")
	t.aggSuppressed = reg.Counter("dkf_router_aggregate_suppressed_total",
		"Aggregate answers served from the cached merged value (outbound re-suppression).")
	t.migrations = reg.Counter("dkf_router_migrations_total",
		"Stream migrations completed.")
	t.reconnects = reg.Counter("dkf_router_upstream_reconnects_total",
		"Upstream shard reconnects completed.")
	const hopHelp = "Per-hop latency of traced forwards, by stage (router: trace rx to forward tx; shard: forward tx to ack)."
	t.hopRouter = reg.HistogramScale("dkf_router_hop_latency_seconds", hopHelp, 1e9,
		telemetry.L("stage", "router"))
	t.hopShard = reg.HistogramScale("dkf_router_hop_latency_seconds", hopHelp, 1e9,
		telemetry.L("stage", "shard"))
	return t
}
