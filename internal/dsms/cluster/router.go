package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"sort"
	"sync"

	"streamkf/internal/dsms"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
)

// The Router is the cluster's front door. Sources speak the unmodified
// v2 wire protocol to it — hello/install, pipelined updates, cumulative
// acks, queries — and the router forwards each stream to its owning
// shard (consistent-hash ring, ring.go) over one pooled, pipelined
// upstream connection per shard. Forwards travel in TagForward
// envelopes carrying a route index so the shard's cumulative
// ForwardAcks can be demultiplexed back to the right source; the ack a
// source sees is therefore end-to-end (its update reached the shard's
// filter), and the source's send window gives the cluster end-to-end
// flow control with zero source-side changes.
//
// Concurrency invariants (the whole file leans on these):
//   - route.mu (outer) serialises a stream's forward path against its
//     migration; route.pendMu (inner) guards only the pending window.
//   - The upstream ack pump takes ONLY pendMu, never route.mu, so a
//     migration blocked in an RPC can never deadlock against the acks
//     that RPC's flush produces.
//   - Each upstream has at most ONE outstanding RPC (rpcMu); the
//     reader goroutine routes any non-ForwardAck frame to the waiting
//     RPC, and treats such a frame with no waiter as a fatal upstream
//     error (sticky, surfaced on the next call).
//   - All writes to a downstream source conn go through its downConn
//     mutex, because upstream readers relay acks concurrently with the
//     handler's own replies.

// Options configures a Router.
type Options struct {
	// VNodes is the virtual-node count per shard (0 = DefaultVNodes).
	VNodes int
	// MaxFrame bounds wire frame sizes (0 = wire.DefaultMaxFrame).
	MaxFrame int
	// AggSuppress is the cluster budget split β ∈ [0,1): shards run
	// their partials at (1-β)Δ and the router re-suppresses outbound
	// answers within βΔ of the last one it released. β = 0 (the
	// default) reproduces the single-server answer bit-for-bit.
	AggSuppress float64
	// Logger, nil for silent.
	Logger *slog.Logger
	// Trace enables the router's own flight recorders: each route gets
	// a seqlock event ring recording fwd_rx/fwd_tx/fwd_ack for traced
	// updates, under the trace id their evidence trailer carries. The
	// forward itself is verbatim either way.
	Trace bool
	// TraceRing is the per-route event capacity (0 = trace default).
	TraceRing int
	// ShardAdmins lists each shard's admin endpoint address (host:port,
	// parallel to the shard address list). Optional; when set, the
	// router's /clusterz federates shard health and /tracez/stream/{id}
	// splices the owning shard's trail into the router's hop events.
	ShardAdmins []string
	// EventCap bounds the topology event ring (0 = 256).
	EventCap int
}

// Router accepts v2-protocol sources and fronts a set of shard servers.
type Router struct {
	ring      *Ring
	opts      Options
	tel       *routerTelemetry
	log       *slog.Logger
	upstreams []*upstream
	downFeats byte // features advertised to sources

	events *eventLog

	ln      net.Listener
	udp     net.PacketConn
	wg      sync.WaitGroup
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool

	routeMu sync.RWMutex
	routes  map[string]*route
	byIdx   []*route

	regMu   sync.Mutex
	queries map[string]stream.Query
	aggs    map[string]*routerAgg
}

// routerAgg is the router's record of a cross-shard aggregate: the
// original query, the member split by owning shard, and the last
// released answer (the outbound re-suppression state).
type routerAgg struct {
	q        dsms.AggregateQuery
	shards   []int            // shards holding members, sorted
	perShard map[int][]string // shard -> member source ids

	mu       sync.Mutex
	cached   float64
	cachedOK bool
	fold     dsms.AggFold
}

// pendEntry is one forwarded-but-unacked update: its seq, the monotonic
// send stamp for the latency histogram, and where its verbatim update
// payload (kept for replay after shard failure or migration cutover)
// ends in the route's log. traceID is nonzero when a tracing router
// forwarded a traced update; the ack pump then records the fwd_ack event
// under the same id.
type pendEntry struct {
	seq     int64
	sentNs  int64
	traceID int64
	end     int
}

// route is the per-stream forwarding state.
type route struct {
	idx      uint32 // dense index, the ForwardAck demux key
	sourceID string

	mu    sync.Mutex // outer: forward path vs migration/reconnect
	shard int
	epoch int64

	pendMu  sync.Mutex  // inner: the ONLY lock the ack pump takes
	pending []pendEntry // the live window, oldest first
	log     []byte      // their payloads back to back, the first at head
	head    int
	down    *downConn

	// rec is the route's flight recorder (nil unless Options.Trace):
	// fwd_rx/fwd_tx/fwd_ack events for traced updates through this
	// route. Written under rt.mu (forward) and pendMu (ack pump) but
	// the recorder itself is a wait-free seqlock — no extra locking.
	rec *trace.Recorder
}

// downConn serialises writes to one downstream source connection.
type downConn struct {
	mu  sync.Mutex
	w   *wire.Writer
	err error
}

func (d *downConn) write(f func(w *wire.Writer) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	err := f(d.w)
	if err == nil {
		err = d.w.Flush()
	}
	d.err = err
	return err
}

// relayAck passes a shard's cumulative ack on to the source. A nil
// conn (UDP route, or the source hung up) and a negative seq (nothing
// acked yet) are no-ops; a dead conn is best effort — the route
// outlives it and the pending window was already cleared.
func (d *downConn) relayAck(seq int64) {
	if d != nil && seq >= 0 {
		_ = d.write(func(w *wire.Writer) error { return w.Ack(seq) })
	}
}

// sendError reports a failure to the source, best effort.
func (d *downConn) sendError(msg string) {
	_ = d.write(func(w *wire.Writer) error { return w.Error(msg) })
}

// NewRouter builds a router fronting shards[i] at addr shards[i],
// dials every shard, and starts listening for sources on listenAddr
// (empty = don't listen; useful for tests driving Register/Answer
// directly). Call Serve to accept sources, Close to shut down.
func NewRouter(listenAddr string, shardAddrs []string, opts Options) (*Router, error) {
	if len(shardAddrs) == 0 {
		return nil, errors.New("cluster: no shards")
	}
	if opts.AggSuppress < 0 || opts.AggSuppress >= 1 {
		return nil, fmt.Errorf("cluster: AggSuppress %v outside [0,1)", opts.AggSuppress)
	}
	log := opts.Logger
	if log == nil {
		log = telemetry.NopLogger()
	}
	tel := newRouterTelemetry(len(shardAddrs))
	r := &Router{
		ring:    NewRing(len(shardAddrs), opts.VNodes),
		opts:    opts,
		tel:     tel,
		log:     log,
		events:  newEventLog(tel.reg, opts.EventCap),
		conns:   make(map[net.Conn]struct{}),
		routes:  make(map[string]*route),
		queries: make(map[string]stream.Query),
		aggs:    make(map[string]*routerAgg),
	}
	for i, addr := range shardAddrs {
		up := &upstream{shard: i, addr: addr, router: r, rpcCh: make(chan rpcReply, 1)}
		if err := up.connect(); err != nil {
			r.Close()
			return nil, err
		}
		r.upstreams = append(r.upstreams, up)
	}
	// Sources are asked for evidence only when every shard asks for it: a
	// migration must not strand a traced stream on a shard that would
	// reject its payloads.
	r.downFeats = wire.FeatEvidence
	for _, up := range r.upstreams {
		up.mu.Lock()
		r.downFeats &= up.feats
		up.mu.Unlock()
	}
	if listenAddr != "" {
		ln, err := net.Listen("tcp", listenAddr)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: listen: %w", err)
		}
		r.ln = ln
	}
	return r, nil
}

// Addr returns the router's source-facing TCP address.
func (r *Router) Addr() string {
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Ring exposes the placement ring (read-mostly; mutate only via
// Migrate and topology calls).
func (r *Router) Ring() *Ring { return r.ring }

// Telemetry returns the router's metric registry.
func (r *Router) Telemetry() *telemetry.Registry { return r.tel.reg }

// Serve accepts source connections until Close. Blocks.
func (r *Router) Serve() error {
	if r.ln == nil {
		return errors.New("cluster: router has no listener")
	}
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			r.connMu.Lock()
			closing := r.closing
			r.connMu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		r.connMu.Lock()
		if r.closing {
			r.connMu.Unlock()
			conn.Close()
			return nil
		}
		r.conns[conn] = struct{}{}
		r.connMu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.handleDown(conn)
		}()
	}
}

// Close shuts the router down: listener, source conns, upstreams.
func (r *Router) Close() error {
	r.connMu.Lock()
	if r.closing {
		r.connMu.Unlock()
		return nil
	}
	r.closing = true
	for conn := range r.conns {
		conn.Close()
	}
	r.connMu.Unlock()
	if r.ln != nil {
		r.ln.Close()
	}
	if r.udp != nil {
		r.udp.Close()
	}
	for _, up := range r.upstreams {
		up.close()
	}
	r.wg.Wait()
	return nil
}

// pumpAck clears a route's pending window through seq and relays the
// cumulative ack downstream. Takes ONLY pendMu — see the invariants at
// the top of the file.
func (r *Router) pumpAck(shard int, idx uint32, seq int64) {
	r.routeMu.RLock()
	var rt *route
	if int(idx) < len(r.byIdx) {
		rt = r.byIdx[idx]
	}
	r.routeMu.RUnlock()
	if rt == nil {
		return
	}
	now := nowNanos()
	hist := r.tel.fwdLatency[shard]
	rt.pendMu.Lock()
	var ackAt int64
	for i := range rt.pending {
		e := &rt.pending[i]
		if e.seq > seq {
			break
		}
		hist.Observe(now - e.sentNs)
		if e.traceID != 0 && rt.rec != nil {
			// One fwd_ack per traced entry the cumulative ack covers,
			// all stamped with the ack's arrival time.
			if ackAt == 0 {
				ackAt = trace.Now()
			}
			rt.rec.Record(&trace.Event{TraceID: e.traceID, Seq: e.seq, At: ackAt, Kind: trace.KindFwdAck, Aux: int64(shard)})
			r.tel.hopShard.Observe(now - e.sentNs)
		}
	}
	rt.trimThrough(seq)
	down := rt.down
	rt.pendMu.Unlock()
	down.relayAck(seq)
}

// ---------------------------------------------------------------------------
// Routes

// routeFor returns the stream's route, creating it (placed by the ring)
// on first sight. The common path is a read-locked map hit with no
// allocation (map[string(b)] lookup).
func (r *Router) routeFor(id []byte) *route {
	r.routeMu.RLock()
	rt := r.routes[string(id)]
	r.routeMu.RUnlock()
	if rt != nil {
		return rt
	}
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	if rt = r.routes[string(id)]; rt != nil {
		return rt
	}
	sid := string(id)
	rt = &route{
		idx:      uint32(len(r.byIdx)),
		sourceID: sid,
		shard:    r.ring.Owner(sid),
		epoch:    r.ring.Epoch(),
	}
	if r.opts.Trace {
		rt.rec = trace.New(trace.Options{RingSize: r.opts.TraceRing})
	}
	r.byIdx = append(r.byIdx, rt)
	r.routes[sid] = rt
	return rt
}

// allRoutes snapshots the route table.
func (r *Router) allRoutes() []*route {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	return append([]*route(nil), r.byIdx...)
}

// trimThrough drops the pending entries a cumulative ack (or a shard's
// ResumeSeq) at seq covers, advancing the log's head past their payloads.
// Once the dead bytes are at least half the log, the survivors and their
// payloads slide to the front (amortised O(1), and the window stays at
// the start of its arrays: appends find room, not new arrays); until then
// the window just steps past the dead ones. Caller holds pendMu.
func (rt *route) trimThrough(seq int64) {
	n := 0
	for n < len(rt.pending) && rt.pending[n].seq <= seq {
		n++
	}
	if n == 0 {
		return
	}
	live := rt.pending[n:]
	if rt.head = rt.pending[n-1].end; 2*rt.head < len(rt.log) {
		rt.pending = live
		return
	}
	rt.pending = rt.pending[:len(live)]
	for i, e := range live {
		e.end -= rt.head
		rt.pending[i] = e
	}
	rt.log, rt.head = rt.log[:copy(rt.log, rt.log[rt.head:])], 0
}

// replayTo re-forwards the route's whole pending window to up, in send
// order under epoch, and flushes — how a recovered or newly owning shard
// receives what its predecessor never acked. Caller holds rt.mu (no
// forward can interleave) but not pendMu: the window is copied out
// first, so the ack pump stays free to trim the log while this write
// blocks (see the invariants above). A write failure marks the upstream
// failed.
func (rt *route) replayTo(up *upstream, epoch int64) error {
	rt.pendMu.Lock()
	log := append([]byte(nil), rt.log[rt.head:]...)
	ends := make([]int, len(rt.pending))
	for i, e := range rt.pending {
		ends[i] = e.end - rt.head
	}
	rt.pendMu.Unlock()
	return up.write(func(w *wire.Writer) error {
		start := 0
		for _, end := range ends {
			if err := w.Forward(rt.idx, epoch, log[start:end]); err != nil {
				return err
			}
			start = end
		}
		return w.Flush()
	})
}

// peekUpdate reads only the routing key of an update payload — u16-len
// sourceID then uvarint seq; the payload is forwarded verbatim and the
// shard does the full decode.
func peekUpdate(p []byte) (id []byte, seq int64, ok bool) {
	c := wire.NewCursor(p)
	id, seq = c.Str(), c.Uvarint()
	return id, seq, c.OK()
}

// fwdItem is one update frame of a run awaiting relay: its route, seq and
// verbatim payload (valid while the run is: see wire.Reader).
type fwdItem struct {
	rt  *route
	seq int64
	p   []byte
}

// relay forwards a run — the update frames one read from a source
// connection, or one datagram, delivered — to the owning shards: per
// sub-run of one route, one rt.mu / up.mu / pendMu section each and one
// clock read (DESIGN §17). It flushes nothing: it marks the shards it
// wrote to in touched, for the caller to flush when the burst ends. The
// payloads join the pending window even when the upstream is down —
// ReconnectShard and Migrate replay from it — so a source sees upstream
// failure only as acks drying up until its send window backpressures.
//
// A tracing router (rt.rec != nil) records the hop where it happens:
// fwd_rx/fwd_tx on the route for every update of the sub-run that carries
// evidence, under the trace id peeked from it, stamped when the sub-run's
// relay began and when its forwards were written.
func (r *Router) relay(run []fwdItem, touched []bool) {
	for len(run) > 0 {
		rt, n := run[0].rt, 1
		for n < len(run) && run[n].rt == rt {
			n++
		}
		var rxNs, txNs int64
		if rt.rec != nil {
			rxNs = trace.Now()
		}
		rt.mu.Lock()
		shard := rt.shard
		up := r.upstreams[shard]
		up.mu.Lock()
		err := up.err
		for i := 0; err == nil && i < n; i++ {
			err = up.w.Forward(rt.idx, rt.epoch, run[i].p)
		}
		up.mu.Unlock()
		if err != nil {
			up.fail(err) // no-op if it had failed already
		}
		if rt.rec != nil {
			txNs = trace.Now()
		}
		now := nowNanos()
		rt.pendMu.Lock()
		for _, it := range run[:n] {
			var tid int64
			if rt.rec != nil {
				tid = r.recordHop(it, rxNs, txNs)
			}
			rt.log = append(rt.log, it.p...)
			rt.pending = append(rt.pending, pendEntry{seq: it.seq, sentNs: now, traceID: tid, end: len(rt.log)})
		}
		rt.pendMu.Unlock()
		rt.mu.Unlock()
		r.tel.forwarded[shard].Add(int64(n))
		touched[shard] = true
		run = run[n:]
	}
}

// recordHop records a traced update's hop on its route's recorder, under
// the trace id its evidence carries, and returns that id; 0 without a
// record when the update carries none. Caller holds the route's mu.
func (r *Router) recordHop(it fwdItem, rxNs, txNs int64) int64 {
	ev := wire.UpdateEvidence(it.p)
	if ev == nil {
		return 0
	}
	rt, tid := it.rt, ev.TraceID()
	rt.rec.Record(&trace.Event{TraceID: tid, Seq: it.seq, At: rxNs, Kind: trace.KindFwdRx, Aux: int64(rt.idx)})
	rt.rec.Record(&trace.Event{TraceID: tid, Seq: it.seq, At: txNs, Kind: trace.KindFwdTx, Aux: rt.epoch})
	r.tel.hopRouter.Observe(txNs - rxNs)
	return tid
}

// flushTouched writes out the buffered forwards of every shard marked in
// touched, and clears the marks.
func (r *Router) flushTouched(touched []bool) {
	for shard, up := range r.upstreams {
		if touched[shard] {
			touched[shard] = false
			_ = up.write((*wire.Writer).Flush)
		}
	}
}

// ---------------------------------------------------------------------------
// Downstream (source-facing) connections

func (r *Router) handleDown(conn net.Conn) {
	defer func() {
		r.connMu.Lock()
		delete(r.conns, conn)
		r.connMu.Unlock()
		conn.Close()
	}()
	r.tel.downConns.Add(1)
	defer r.tel.downConns.Add(-1)

	rd := wire.NewReader(conn, 0, r.opts.MaxFrame)
	dc := &downConn{w: wire.NewWriter(conn, 0, r.opts.MaxFrame)}

	ver, _, err := rd.ReadPreamble()
	if err != nil {
		return
	}
	if err := wire.CheckVersion(ver); err != nil {
		dc.sendError(err.Error())
		return
	}
	if err := dc.write(func(w *wire.Writer) error {
		return w.WritePreamble(wire.Version, r.downFeats)
	}); err != nil {
		return
	}

	var (
		boundRoutes []*route  // routes this conn is the down side of
		rt          *route    // the route of the last update relayed
		run         []fwdItem // the run being gathered; reused
	)
	touched := make([]bool, len(r.upstreams))
	defer func() {
		for _, rt := range boundRoutes {
			rt.pendMu.Lock()
			if rt.down == dc {
				rt.down = nil
			}
			rt.pendMu.Unlock()
		}
	}()

	for {
		tag, p, err := rd.Next()
		if err != nil {
			return
		}
		switch tag {
		case wire.TagHello:
			id, err := wire.DecodeHello(p)
			if err != nil {
				dc.sendError(err.Error())
				return
			}
			rt := r.routeFor([]byte(id))
			inst, err := r.helloRoute(rt)
			if err != nil {
				dc.sendError(err.Error())
				return
			}
			rt.pendMu.Lock()
			rt.down = dc
			rt.pendMu.Unlock()
			boundRoutes = append(boundRoutes, rt)
			if err := dc.write(func(w *wire.Writer) error { return w.Install(inst) }); err != nil {
				return
			}

		case wire.TagUpdate:
			// A run: this frame and the update frames the same read
			// delivered behind it.
			for {
				idb, seq, ok := peekUpdate(p)
				if !ok {
					dc.sendError("malformed update")
					return
				}
				if rt == nil || rt.sourceID != string(idb) {
					rt = r.routeFor(idb)
				}
				run = append(run, fwdItem{rt: rt, seq: seq, p: p})
				if next, ok := rd.Ready(); !ok || next != wire.TagUpdate {
					break
				}
				_, p, _ = rd.Next() // buffered in full: cannot fail
			}
			r.relay(run, touched)
			run = run[:0]
			if rd.Buffered() == 0 {
				r.flushTouched(touched)
			}

		case wire.TagQuery:
			qid, seq, err := rd.DecodeQuery(p)
			if err != nil {
				dc.sendError(err.Error())
				continue
			}
			vals, err := r.answerQuery(qid, int(seq))
			if err != nil {
				dc.sendError(err.Error())
				continue
			}
			if err := dc.write(func(w *wire.Writer) error { return w.Answer(qid, vals) }); err != nil {
				return
			}

		default:
			dc.sendError(fmt.Sprintf("cluster: unexpected frame %v", tag))
			return
		}
	}
}

// helloRoute relays a source hello to the owning shard and returns the
// shard's install.
func (r *Router) helloRoute(rt *route) (wire.Install, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	inst, _, err := r.helloLocked(rt)
	if err == nil {
		r.tel.helloTotal.Inc()
	}
	return inst, err
}

// helloLocked is helloRoute with rt.mu held. Pending forwards at or
// below the shard's ResumeSeq are cleared here: the RPC's flush pushed
// every earlier forward ahead of the hello, so ResumeSeq reflects them
// all. Also returns the route's downstream conn, for relaying that
// ResumeSeq as an ack.
func (r *Router) helloLocked(rt *route) (wire.Install, *downConn, error) {
	inst, err := r.upstreams[rt.shard].hello(rt.sourceID)
	if err != nil {
		return wire.Install{}, nil, err
	}
	rt.pendMu.Lock()
	rt.trimThrough(inst.ResumeSeq)
	down := rt.down
	rt.pendMu.Unlock()
	return inst, down, nil
}

// ---------------------------------------------------------------------------
// Queries

// RegisterQuery installs a continuous query for one stream on its
// owning shard.
func (r *Router) RegisterQuery(q stream.Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if err := r.upstreams[r.ring.Owner(q.SourceID)].registerQuery(q); err != nil {
		return err
	}
	r.regMu.Lock()
	r.queries[q.ID] = q
	r.regMu.Unlock()
	return nil
}

// RegisterAggregate splits a cross-shard aggregate into per-shard
// partial aggregates (see registerPartial for the budget split).
func (r *Router) RegisterAggregate(q dsms.AggregateQuery) error {
	if err := q.Validate(); err != nil {
		return err
	}
	agg := &routerAgg{q: q, perShard: make(map[int][]string)}
	for _, src := range q.SourceIDs {
		s := r.ring.Owner(src)
		agg.perShard[s] = append(agg.perShard[s], src)
	}
	for s := range agg.perShard {
		agg.shards = append(agg.shards, s)
	}
	sort.Ints(agg.shards)
	for _, s := range agg.shards {
		if err := r.upstreams[s].registerPartial(q, agg.perShard[s], r.opts.AggSuppress); err != nil {
			return err
		}
	}
	r.regMu.Lock()
	r.aggs[q.ID] = agg
	r.regMu.Unlock()
	return nil
}

// AnswerAggregate merges per-shard partials into the aggregate answer
// at seq through the fold the shards themselves run (dsms.AggFold) —
// the bit-identical single-server value regardless of how members are
// split. With β > 0 the router serves the cached answer while the fresh
// merge stays within βΔ of it.
func (r *Router) AnswerAggregate(queryID string, seq int) (float64, error) {
	r.regMu.Lock()
	agg := r.aggs[queryID]
	r.regMu.Unlock()
	if agg == nil {
		return 0, fmt.Errorf("cluster: unknown aggregate %s", queryID)
	}
	agg.mu.Lock()
	defer agg.mu.Unlock()
	agg.fold.Reset(agg.q.Func)
	for _, s := range agg.shards {
		vals, err := r.upstreams[s].query(queryID, seq)
		if err != nil {
			return 0, err
		}
		agg.fold.Merge(vals)
	}
	val := agg.fold.Finish(len(agg.q.SourceIDs))
	r.tel.aggAnswers.Inc()
	if agg.cachedOK && math.Abs(val-agg.cached) <= r.opts.AggSuppress*agg.q.Delta {
		r.tel.aggSuppressed.Inc()
		return agg.cached, nil
	}
	agg.cached, agg.cachedOK = val, true
	return val, nil
}

// answerQuery resolves a downstream TagQuery: aggregates merge across
// shards, plain queries relay to the stream's current owner.
func (r *Router) answerQuery(queryID string, seq int) ([]float64, error) {
	r.regMu.Lock()
	_, isAgg := r.aggs[queryID]
	q, isPlain := r.queries[queryID]
	r.regMu.Unlock()
	if isAgg {
		v, err := r.AnswerAggregate(queryID, seq)
		if err != nil {
			return nil, err
		}
		return []float64{v}, nil
	}
	if !isPlain {
		return nil, fmt.Errorf("cluster: unknown query %s", queryID)
	}
	return r.upstreams[r.ring.Owner(q.SourceID)].query(queryID, seq)
}

// ---------------------------------------------------------------------------
// Shard recovery

// DeadShards returns the indices of upstreams whose connection is down
// — the candidates for ReconnectShard.
func (r *Router) DeadShards() []int {
	var dead []int
	for _, up := range r.upstreams {
		up.mu.Lock()
		if !up.alive {
			dead = append(dead, up.shard)
		}
		up.mu.Unlock()
	}
	return dead
}

// ReconnectShard redials a lost shard and resynchronises: queries and
// aggregates owned by the shard are re-registered (idempotent on the
// shard side — a shard restarting from its WAL already has them), and
// every route on the shard replays its pending window past the shard's
// recovered ResumeSeq. Because the source↔router connection never
// broke, the router also relays the recovered ack downstream — that is
// what reopens the source's send window.
func (r *Router) ReconnectShard(shard int) error {
	if shard < 0 || shard >= len(r.upstreams) {
		return fmt.Errorf("cluster: no shard %d", shard)
	}
	reconnStart := trace.Now()
	up := r.upstreams[shard]
	up.fail(errors.New("cluster: reconnecting")) // idempotent if already down
	if err := up.connect(); err != nil {
		return err
	}

	// Re-register registrations owned by this shard.
	r.regMu.Lock()
	var qs []stream.Query
	var aggs []*routerAgg
	for _, q := range r.queries {
		if r.ring.Owner(q.SourceID) == shard {
			qs = append(qs, q)
		}
	}
	for _, a := range r.aggs {
		if _, ok := a.perShard[shard]; ok {
			aggs = append(aggs, a)
		}
	}
	r.regMu.Unlock()
	for _, q := range qs {
		if err := up.registerQuery(q); err != nil {
			return err
		}
	}
	for _, a := range aggs {
		if err := up.registerPartial(a.q, a.perShard[shard], r.opts.AggSuppress); err != nil {
			return err
		}
	}

	// Resync every route on this shard.
	for _, rt := range r.allRoutes() {
		rt.mu.Lock()
		if rt.shard != shard {
			rt.mu.Unlock()
			continue
		}
		inst, down, err := r.helloLocked(rt)
		if err == nil {
			err = rt.replayTo(up, rt.epoch)
		}
		rt.mu.Unlock()
		if err != nil {
			return err
		}
		down.relayAck(inst.ResumeSeq)
	}
	r.tel.reconnects.Inc()
	r.events.record(TopoEvent{
		Kind: EvShardReconnect, Shard: shard,
		DurMs: float64(trace.Now()-reconnStart) / 1e6,
	})
	return nil
}
