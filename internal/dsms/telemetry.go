package dsms

import (
	"errors"
	"runtime"
	"strconv"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/telemetry"
)

// epoch is process start, the zero of dkf_uptime_seconds.
var epoch = time.Now()

// Version identifies the build in dkf_build_info, the server's and the router's.
// Overridden at link time: -ldflags "-X streamkf/internal/dsms.Version=v1.2.3".
var Version = "dev"

// numTags sizes the per-tag counter arrays: wire tags are 0x01..0x07
// (0x08 is the retired trace frame) plus the cluster tags 0x09..0x0f;
// index 0 collects anything out of range.
const numTags = 16

// tagLabels names the per-tag label values, indexed by wire.Tag.
var tagLabels = [numTags]string{
	"other", "hello", "install", "update", "ack", "query", "answer", "error", "retired_trace",
	"forward", "forward_ack", "cluster_reg", "registered", "snapshot", "restore", "state_ack",
}

// serverTelemetry bundles the server-wide instruments: the registry the
// admin endpoint scrapes and the wire-layer traffic and error taxonomy
// shared by every connection. Per-tag counters are pre-created arrays
// indexed by the tag byte, so the frame hooks are a bounds check and an
// atomic add — nothing on the ingest hot path allocates or locks.
type serverTelemetry struct {
	reg *telemetry.Registry

	connsTotal  *telemetry.Counter
	connsActive *telemetry.Gauge

	aggAnswers  *telemetry.Counter
	aggMemoHits *telemetry.Counter

	rxFrames [numTags]*telemetry.Counter
	rxBytes  [numTags]*telemetry.Counter
	txFrames [numTags]*telemetry.Counter
	txBytes  [numTags]*telemetry.Counter

	errs map[string]*telemetry.Counter // dkf_wire_errors_total by kind
}

// DefaultSourceMetricLimit caps how many sources get individually labeled
// metric series: at 100k sources, eight per source would swamp the registry
// and every scrape. The first that many to register do; the rest share one
// roll-up (source="_other"), so the export's totals stay correct and only
// its per-source resolution degrades — Stats is exact regardless.
const DefaultSourceMetricLimit = 4096

func newServerTelemetry(reg *telemetry.Registry) *serverTelemetry {
	t := &serverTelemetry{reg: reg, errs: make(map[string]*telemetry.Counter)}
	// Build identity and uptime, so any scrape names the binary it came
	// from and restarts are visible as an uptime reset.
	reg.Gauge("dkf_build_info", "Build identity; the value is always 1.",
		telemetry.L("version", Version), telemetry.L("goversion", runtime.Version())).Set(1)
	reg.GaugeFunc("dkf_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(epoch).Seconds() })
	t.connsTotal = reg.Counter("dkf_wire_connections_total", "TCP connections accepted.")
	t.connsActive = reg.Gauge("dkf_wire_connections_active", "TCP connections currently open.")
	t.aggAnswers = reg.Counter("dkf_aggregate_answers_total", "Aggregate answers computed from member filters (memo misses).")
	t.aggMemoHits = reg.Counter("dkf_aggregate_memo_hits_total", "Aggregate answers served from the seq-stamped memo.")
	for i, name := range tagLabels {
		tag := telemetry.L("tag", name)
		t.rxFrames[i] = reg.Counter("dkf_wire_rx_frames_total", "Frames received, by tag.", tag)
		t.rxBytes[i] = reg.Counter("dkf_wire_rx_bytes_total", "Bytes received in frames (length prefix included), by tag.", tag)
		t.txFrames[i] = reg.Counter("dkf_wire_tx_frames_total", "Frames sent, by tag.", tag)
		t.txBytes[i] = reg.Counter("dkf_wire_tx_bytes_total", "Bytes sent in frames (length prefix included), by tag.", tag)
	}
	for _, kind := range []string{"peer_closed", "truncated", "oversize", "malformed", "version", "bad_magic", "unknown_tag", "other"} {
		t.errs[kind] = reg.Counter("dkf_wire_errors_total", "Wire protocol failures, by kind.", telemetry.L("kind", kind))
	}
	return t
}

// rx counts a received frame; tx is the wire.Writer OnFrame hook.
func (t *serverTelemetry) rx(tag wire.Tag, n int) { countFrame(&t.rxFrames, &t.rxBytes, tag, n) }
func (t *serverTelemetry) tx(tag wire.Tag, n int) { countFrame(&t.txFrames, &t.txBytes, tag, n) }

func countFrame(frames, bytes *[numTags]*telemetry.Counter, tag wire.Tag, frameBytes int) {
	i := int(tag)
	if i >= numTags {
		i = 0
	}
	frames[i].Inc()
	bytes[i].Add(int64(frameBytes))
}

// countWireError buckets a connection failure into the error taxonomy.
func (t *serverTelemetry) countWireError(err error) {
	var fse *wire.FrameSizeError
	var ve *wire.VersionError
	kind := "other"
	switch {
	case errors.Is(err, core.ErrPeerClosed):
		kind = "peer_closed"
	case errors.Is(err, core.ErrTruncated):
		kind = "truncated"
	case errors.Is(err, wire.ErrBadMagic):
		kind = "bad_magic"
	case errors.Is(err, wire.ErrMalformed):
		kind = "malformed"
	case errors.As(err, &fse):
		kind = "oversize"
	case errors.As(err, &ve):
		kind = "version"
	}
	t.errs[kind].Inc()
}

// streamColumns are the eight per-stream metric families, in exposition
// order: one telemetry.Table whose rows are the stream records, read at
// scrape time. The apply writes the record and nothing else.
var streamColumns = [...]telemetry.Column{
	{Name: "dkf_server_updates_total", Help: "Updates folded into the server filter.", Counter: true},
	{Name: "dkf_server_suppressed_total", Help: "Source-suppressed steps, inferred from update sequence gaps.", Counter: true},
	{Name: "dkf_server_recv_bytes_total", Help: "Update payload bytes received (wire-cost model).", Counter: true},
	{Name: "dkf_server_seq", Help: "Latest reading index folded into the stream's filter."},
	{Name: "dkf_stream_nis", Help: "Normalized innovation squared of the latest update."},
	{Name: "dkf_stream_whiteness", Help: "Lag-1 autocorrelation of recent innovations (near 0 when healthy)."},
	{Name: "dkf_stream_healthy", Help: "1 while the innovation sequence is white; 0 flags a mis-modeled stream."},
	{Name: "dkf_server_suppression_ratio", Help: "Fraction of source readings suppressed: suppressed / (updates + suppressed)."},
}

// streamRow fills one row of streamColumns from a stream's Stats.
func streamRow(vals []float64, s Stats) {
	var ratio float64
	if s.Updates+s.Suppressed != 0 {
		ratio = float64(s.Suppressed) / float64(s.Updates+s.Suppressed)
	}
	copy(vals, []float64{float64(s.Updates), float64(s.Suppressed), float64(s.Bytes), float64(s.Seq),
		s.NIS, s.Whiteness, float64(b2u8(s.Healthy)), ratio})
}

// streamRows produces the table's rows in one walk of the handle table. A
// live stream whose handle is within the series cap has a row of its own,
// in the slot its handle names; the rest are summed into source="_other"
// behind them — counts added, the highest seq and NIS, the resting health
// (streams cannot share one whiteness statistic) — there once a handle past
// the cap has been handed out. Rows follow handles, so an id dropped and
// registered again past the cap is in the roll-up and nowhere else.
func (s *Server) streamRows(row func(slot int, label string, vals []float64)) {
	var vals [len(streamColumns)]float64
	other := Stats{Healthy: true}
	s.streams.each(func(st *sourceState) {
		if st.handle <= DefaultSourceMetricLimit {
			streamRow(vals[:], st.stats())
			row(int(st.handle), st.id, vals[:])
			return
		}
		o := st.stats()
		other.Updates, other.Suppressed, other.Bytes = other.Updates+o.Updates, other.Suppressed+o.Suppressed, other.Bytes+o.Bytes
		other.Seq, other.NIS = max(other.Seq, o.Seq), max(other.NIS, o.NIS)
	})
	if s.streams.n.Load() > DefaultSourceMetricLimit {
		streamRow(vals[:], other)
		row(DefaultSourceMetricLimit+1, "_other", vals[:])
	}
}

// engineInstruments is the shard ingest engine and datagram transport
// instrument set: per-shard occupancy (applies, dedups, ring depth
// high-water mark, ring-full sheds) plus the datagram rx/drop taxonomy.
// Everything touched per update is a pre-created counter; ring stats
// are read from the engine at scrape time via gauge funcs.
type engineInstruments struct {
	shardApplied []*telemetry.Counter
	shardDedup   []*telemetry.Counter

	datagramsRx  *telemetry.Counter
	datagramsBad *telemetry.Counter
	framesRx     *telemetry.Counter
	preBootstrap *telemetry.Counter
	unknown      *telemetry.Counter
	rejected     *telemetry.Counter
	walErrors    *telemetry.Counter
}

func newEngineInstruments(reg *telemetry.Registry, e *engine.Engine) *engineInstruments {
	n := e.Shards()
	ei := &engineInstruments{
		shardApplied: make([]*telemetry.Counter, n),
		shardDedup:   make([]*telemetry.Counter, n),
	}
	for i := 0; i < n; i++ {
		sh := telemetry.L("shard", strconv.Itoa(i))
		ei.shardApplied[i] = reg.Counter("dkf_engine_applied_total", "Updates applied by the shard worker, by shard.", sh)
		ei.shardDedup[i] = reg.Counter("dkf_engine_dedup_total", "Duplicate updates (seq at or below last applied) dropped, by shard.", sh)
		reg.GaugeFunc("dkf_engine_ring_depth_hwm", "High-water mark of SPSC ring occupancy, by shard.",
			func() float64 { return float64(e.Stats()[i].RingDepthHWM) }, sh)
		reg.GaugeFunc("dkf_engine_ring_dropped_total", "Updates shed because the shard's ring was full, by shard.",
			func() float64 { return float64(e.Stats()[i].Dropped) }, sh)
	}
	ei.datagramsRx = reg.Counter("dkf_udp_datagrams_rx_total", "UDP datagrams received.")
	ei.datagramsBad = reg.Counter("dkf_udp_datagrams_bad_total", "UDP datagrams rejected (bad preamble, malformed frame).")
	ei.framesRx = reg.Counter("dkf_udp_frames_rx_total", "Frames decoded from UDP datagrams.")
	ei.preBootstrap = reg.Counter("dkf_engine_pre_bootstrap_total", "Updates dropped because they arrived before their stream's bootstrap.")
	ei.unknown = reg.Counter("dkf_engine_unknown_source_total", "Updates dropped for unregistered or uninstallable sources.")
	ei.rejected = reg.Counter("dkf_engine_rejected_total", "Updates the filter apply rejected (stale, malformed).")
	ei.walErrors = reg.Counter("dkf_engine_wal_errors_total", "Shard batch WAL commits that failed.")
	return ei
}
