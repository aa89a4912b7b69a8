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
	"streamkf/internal/dsms/engine"
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
// The router keeps no copy of an update: its source's agent resends what
// a shard lost (resume, below).
//
// Concurrency invariants (the whole file leans on these):
//   - route.mu (outer) serialises a stream's forward path against its
//     migration, recovery and hellos; route.pendMu (inner) guards only
//     the ack pump's stamps and down (written under both).
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

// stamp is a forward's seq and send time (trace.Now, and its trace id,
// for a traced one).
type stamp struct {
	seq, sentNs, traceID int64
}

// route is the per-stream forwarding state.
type route struct {
	idx      uint32 // dense index, the ForwardAck demux key
	sourceID string

	mu    sync.Mutex // outer: forward path vs migration/reconnect/hello
	shard int
	epoch int64
	inst  wire.Install // of the source's last hello
	hi    int64        // the highest seq read, relayed or dropped
	// What the route reads is dropped while it is fenced or owed resend
	// markers for the Installs resume wrote.
	fenced bool
	owed   int

	pendMu sync.Mutex // inner: the ONLY lock the ack pump takes
	down   *downConn
	sample stamp   // the forward timed for fwdLatency (sentNs 0: none)
	traced []stamp // traced forwards not yet acked, oldest first

	// rec is the route's flight recorder (nil unless Options.Trace):
	// fwd_rx/fwd_tx/fwd_ack events for traced updates through this
	// route. Written under rt.mu (forward) and pendMu (ack pump) but
	// the recorder itself is a wait-free seqlock — no extra locking.
	rec *trace.Recorder
}

// downConn serialises writes to one downstream source connection.
type downConn struct {
	conn   net.Conn
	resume bool // the source offered wire.FeatResume
	mu     sync.Mutex
	w      *wire.Writer
	err    error
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
// outlives it.
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
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = wire.DefaultMaxFrame
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

// pumpAck settles a route's stamps through seq and relays the cumulative
// ack downstream. Takes ONLY pendMu — see the invariants at the top of
// the file.
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
	rt.pendMu.Lock()
	if rt.sample.sentNs != 0 && rt.sample.seq <= seq {
		r.tel.fwdLatency[shard].Observe(nowNanos() - rt.sample.sentNs)
		rt.sample.sentNs = 0
	}
	k := 0
	for k < len(rt.traced) && rt.traced[k].seq <= seq {
		k++
	}
	if k > 0 { // one fwd_ack per traced forward covered, at the ack's arrival
		ackAt := trace.Now()
		for _, e := range rt.traced[:k] {
			rt.rec.Record(&trace.Event{TraceID: e.traceID, Seq: e.seq, At: ackAt, Kind: trace.KindFwdAck, Aux: int64(shard)})
			r.tel.hopShard.Observe(ackAt - e.sentNs)
		}
		rt.traced = rt.traced[:copy(rt.traced, rt.traced[k:])]
	}
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
		hi:       -1,
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

// peekUpdate reads only the routing key of an update payload — u16-len
// sourceID then uvarint seq; the frame is forwarded verbatim and the
// shard does the full decode.
func peekUpdate(p []byte) (id []byte, seq int64, ok bool) {
	c := wire.NewCursor(p)
	id, seq = c.Str(), c.Uvarint()
	return id, seq, c.OK()
}

// fwdItem is one update frame of a run awaiting relay: its route, seq and
// frame as sent (valid while the run is: see wire.Reader).
type fwdItem struct {
	rt  *route
	seq int64
	f   []byte
}

// relay forwards a run — the update frames one read from a source
// connection, or one datagram, delivered — to the owning shards: per
// sub-run of one route, one rt.mu / up.mu / pendMu section and one forward
// of its frames as they lie in the run (DESIGN §17), cut where the next is
// not right behind the last in memory, at engine.BatchSize frames and at
// the max frame. It flushes nothing: it marks the shards it wrote to in touched,
// for the caller to flush when the read or the datagram ends. A fenced route, or a failed
// upstream, drops the sub-run: its source resends it when resume asks, so
// it sees upstream failure only as acks drying up until its send window
// backpressures.
//
// A tracing router (rt.rec != nil) records the hop where it happens:
// fwd_rx/fwd_tx on the route for every forwarded update that carries
// evidence, under the trace id peeked from it, stamped when the sub-run's
// relay began and when its forward was written.
func (r *Router) relay(run []fwdItem, touched []bool) {
	for len(run) > 0 {
		rt, n, span := run[0].rt, 1, run[0].f
		for ; n < len(run) && n < engine.BatchSize && run[n].rt == rt; n++ {
			// Only a frame right behind span in its array can join it.
			f := run[n].f
			if cap(span)-len(span) < len(f) || &span[:len(span)+1][len(span)] != &f[0] ||
				len(span)+len(f) > r.opts.MaxFrame-wire.ForwardHead {
				break
			}
			span = span[:len(span)+len(f)]
		}
		var rxNs, txNs int64
		if rt.rec != nil {
			rxNs = trace.Now()
		}
		rt.mu.Lock()
		rt.hi = max(rt.hi, run[n-1].seq)
		if !rt.fenced && rt.owed == 0 &&
			r.upstreams[rt.shard].write(func(w *wire.Writer) error { return w.Forward(rt.idx, rt.epoch, span) }) == nil {
			rt.pendMu.Lock()
			if rt.sample.sentNs == 0 {
				rt.sample = stamp{seq: run[n-1].seq, sentNs: nowNanos()}
			}
			if rt.rec != nil {
				txNs = trace.Now()
				for _, it := range run[:n] {
					if ev := wire.UpdateEvidence(it.f[5:]); ev != nil {
						tid := ev.TraceID()
						rt.rec.Record(&trace.Event{TraceID: tid, Seq: it.seq, At: rxNs, Kind: trace.KindFwdRx, Aux: int64(rt.idx)})
						rt.rec.Record(&trace.Event{TraceID: tid, Seq: it.seq, At: txNs, Kind: trace.KindFwdTx, Aux: rt.epoch})
						r.tel.hopRouter.Observe(txNs - rxNs)
						rt.traced = append(rt.traced, stamp{seq: it.seq, sentNs: txNs, traceID: tid})
					}
				}
			}
			rt.pendMu.Unlock()
			r.tel.forwarded[rt.shard].Add(int64(n))
			touched[rt.shard] = true
		}
		rt.mu.Unlock()
		run = run[n:]
	}
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

	rd := wire.NewReader(conn, wire.MaxReadBuffer, r.opts.MaxFrame)
	dc := &downConn{conn: conn, w: wire.NewWriter(conn, 0, r.opts.MaxFrame)}

	ver, feats, err := rd.ReadPreamble()
	if err != nil {
		return
	}
	dc.resume = feats&wire.FeatResume != 0
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
			rt.mu.Lock()
			rt.pendMu.Lock()
			if rt.down == dc {
				rt.down = nil
			}
			rt.pendMu.Unlock()
			rt.mu.Unlock()
		}
	}()

	for {
		if _, ok := rd.Ready(); !ok {
			// The read is relayed: push it on before the next one.
			r.flushTouched(touched)
		}
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
			if _, err := r.hello(rt, dc); err != nil {
				dc.sendError(err.Error())
				return
			}
			boundRoutes = append(boundRoutes, rt)

		case wire.TagUpdate:
			// A run: this frame and the update frames the same read
			// delivered behind it, engine.BatchSize at most.
			idb, seq, ok := peekUpdate(p)
			if !ok {
				dc.sendError("malformed update")
				return
			}
			if rt == nil || rt.sourceID != string(idb) {
				rt = r.routeFor(idb)
			}
			run = append(run, fwdItem{rt: rt, seq: seq, f: rd.Frame(p)})
			if next, ok := rd.Ready(); !ok || next != wire.TagUpdate || len(run) == engine.BatchSize {
				r.relay(run, touched)
				run = run[:0]
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

// hello serves a source's hello for rt on dc (nil for a datagram source).
// On a connection that owes the route a resend marker (see resume) it is
// that marker. Otherwise the shard's install is returned and written to
// dc, which the route binds, ending its fence. The RPC's flush pushed
// every earlier forward ahead of the hello: ResumeSeq reflects them all.
func (r *Router) hello(rt *route, dc *downConn) (wire.Install, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if dc != nil && rt.owed > 0 && rt.down == dc {
		rt.owed--
		return wire.Install{}, nil
	}
	inst, err := r.upstreams[rt.shard].hello(rt.sourceID)
	if err != nil {
		return inst, err
	}
	rt.inst = inst
	r.tel.helloTotal.Inc()
	rt.fenced, rt.owed = false, 0
	if dc != nil {
		rt.pendMu.Lock()
		rt.down = dc
		rt.pendMu.Unlock()
		err = dc.write(func(w *wire.Writer) error { return w.Install(inst) })
	}
	return inst, err
}

// resume puts the route back in step with its shard, which holds the
// stream through seq, after a recovery or a cutover. If that is all the
// route has read, the source is acked through seq. Otherwise the source
// resends the rest: it is written an Install carrying seq, and the route
// drops what it reads until the hello that marks the resend. A source
// without wire.FeatResume is sent an error and hung up on (the route stays
// fenced until it hellos again); a datagram route's forwards past seq are
// lost. Caller holds rt.mu.
func (r *Router) resume(rt *route, seq int64) {
	rt.pendMu.Lock()
	rt.sample.sentNs, rt.traced = 0, rt.traced[:0] // forwards from before: no ack will time them
	down := rt.down
	rt.pendMu.Unlock()
	rt.fenced = false
	switch {
	case seq >= rt.hi || down == nil:
		down.relayAck(seq)
	case !down.resume:
		rt.fenced = true
		down.sendError(fmt.Sprintf("cluster: stream %s lost its updates past seq %d with its shard; reconnect to resume", rt.sourceID, seq))
		down.conn.Close()
	default:
		rt.owed++
		inst := rt.inst
		inst.ResumeSeq = seq
		_ = down.write(func(w *wire.Writer) error { return w.Install(inst) })
	}
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
// every route on the shard resumes from its recovered ResumeSeq. The
// routes are fenced before the redial: none relays a fresh update into
// the recovered shard past a gap before its own resume.
func (r *Router) ReconnectShard(shard int) error {
	if shard < 0 || shard >= len(r.upstreams) {
		return fmt.Errorf("cluster: no shard %d", shard)
	}
	reconnStart := trace.Now()
	up := r.upstreams[shard]
	up.fail(errors.New("cluster: reconnecting")) // idempotent if already down
	for _, rt := range r.allRoutes() {
		rt.mu.Lock()
		rt.fenced = rt.fenced || rt.shard == shard
		rt.mu.Unlock()
	}
	if err := up.connect(); err != nil {
		return err
	}

	// Re-register registrations owned by this shard.
	var regs []func() error
	r.regMu.Lock()
	for _, q := range r.queries {
		if r.ring.Owner(q.SourceID) == shard {
			regs = append(regs, func() error { return up.registerQuery(q) })
		}
	}
	for _, a := range r.aggs {
		if members, ok := a.perShard[shard]; ok {
			regs = append(regs, func() error { return up.registerPartial(a.q, members, r.opts.AggSuppress) })
		}
	}
	r.regMu.Unlock()
	for _, reg := range regs {
		if err := reg(); err != nil {
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
		inst, err := up.hello(rt.sourceID)
		if err == nil {
			rt.inst = inst
			r.resume(rt, inst.ResumeSeq)
		}
		rt.mu.Unlock()
		if err != nil {
			return err
		}
	}
	r.tel.reconnects.Inc()
	r.events.record(TopoEvent{
		Kind: EvShardReconnect, Shard: shard,
		DurMs: float64(trace.Now()-reconnStart) / 1e6,
	})
	return nil
}
