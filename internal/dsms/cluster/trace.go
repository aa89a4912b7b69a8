package cluster

import (
	"fmt"
	"net/url"
	"slices"
	"sort"

	"streamkf/internal/dsms"
	"streamkf/internal/trace"
)

// Distributed /tracez: a hop is recorded once, where it happens — the
// router keeps fwd_rx/fwd_tx/fwd_ack in its own per-route flight
// recorders, the shard everything from wire_rx on — and TraceStream fans
// the lookup out to the owning shard's admin endpoint, splicing both
// trails into one causal chain keyed by the traceID the source minted.
// Because a traced update carries the source's decision timestamp, the
// spliced chain is time-ordered end to end:
// decision → fwd_rx → fwd_tx → wire_rx → apply → wal → fwd_ack.

// ClusterStreamTrace is the router's /tracez/stream/{id} document.
type ClusterStreamTrace struct {
	SourceID   string `json:"source_id"`
	Shard      int    `json:"shard"`
	ShardAdmin string `json:"shard_admin,omitempty"`
	Enabled    bool   `json:"enabled"`
	// RouterEvents is the router's own trail for the route, oldest
	// first; ShardTrace is the owning shard's document (nil when the
	// shard admin endpoint is unreachable or unconfigured — see Error).
	RouterEvents []trace.EventView `json:"router_events"`
	ShardTrace   *dsms.StreamTrace `json:"shard_trace,omitempty"`
	// Chain merges both trails (they share no event), ordered by
	// timestamp (causal stage rank breaks ties).
	Chain []trace.EventView `json:"chain"`
	Error string            `json:"error,omitempty"`
}

// TraceEnabled reports whether the router records forwarding events.
func (r *Router) TraceEnabled() bool { return r.opts.Trace }

// chainOrder is a reading's lifecycle, stage by stage in causal order,
// for breaking timestamp ties when splicing trails recorded on different
// nodes; answer and anything future sort after it.
var chainOrder = []string{"smooth", "predict", "decision", "wire_tx", "fwd_rx", "fwd_tx", "wire_rx", "apply", "wal", "fwd_ack"}

func chainRank(kind string) int {
	if i := slices.Index(chainOrder, kind); i >= 0 {
		return i
	}
	return len(chainOrder)
}

// TraceStream returns the spliced cross-node trail for a source id or
// query id. The shard half degrades gracefully: with no reachable
// shard admin endpoint the document still carries the router's own
// events and names the problem in Error.
func (r *Router) TraceStream(id string) (ClusterStreamTrace, error) {
	sourceID := id
	r.regMu.Lock()
	if q, ok := r.queries[id]; ok {
		sourceID = q.SourceID
	}
	r.regMu.Unlock()

	r.routeMu.RLock()
	rt := r.routes[sourceID]
	r.routeMu.RUnlock()
	if rt == nil {
		return ClusterStreamTrace{}, fmt.Errorf("cluster: unknown stream or query %s", id)
	}
	rt.mu.Lock()
	shard := rt.shard
	rt.mu.Unlock()

	out := ClusterStreamTrace{
		SourceID:   sourceID,
		Shard:      shard,
		ShardAdmin: r.shardAdmin(shard),
		Enabled:    rt.rec != nil,
	}
	if rt.rec != nil {
		evs := rt.rec.Events()
		out.RouterEvents = make([]trace.EventView, len(evs))
		for i := range evs {
			out.RouterEvents[i] = evs[i].View()
		}
	}
	if out.ShardAdmin == "" {
		out.Error = "no shard admin endpoint configured"
	} else {
		var st dsms.StreamTrace
		if err := fetchJSON(out.ShardAdmin, "/tracez/stream/"+url.PathEscape(sourceID), &st); err != nil {
			out.Error = err.Error()
		} else {
			out.ShardTrace = &st
		}
	}

	out.Chain = append(out.Chain, out.RouterEvents...)
	if out.ShardTrace != nil {
		out.Chain = append(out.Chain, out.ShardTrace.Events...)
	}
	sort.SliceStable(out.Chain, func(i, j int) bool {
		a, b := out.Chain[i], out.Chain[j]
		if a.AtUnixNs != b.AtUnixNs {
			return a.AtUnixNs < b.AtUnixNs
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return chainRank(a.Kind) < chainRank(b.Kind)
	})
	return out, nil
}

// TraceRecent returns up to limit recent forwarding events across all
// routes, newest first — the router's /tracez listing, filtered like
// the shard server's.
func (r *Router) TraceRecent(limit int, source string, kind trace.Kind, dec trace.Decision) []dsms.TraceEntry {
	recs := make(map[string]*trace.Recorder)
	for _, rt := range r.allRoutes() {
		recs[rt.sourceID] = rt.rec
	}
	return dsms.RecentTrace(recs, limit, source, kind, dec)
}
