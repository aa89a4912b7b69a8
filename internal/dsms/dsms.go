// Package dsms composes the DKF protocol into the end-to-end stream
// management system the paper's Figure 1 sketches and its future-work
// list calls for: a central server that accepts continuous queries with
// precision constraints, installs a Kalman filter per remote source,
// receives the (suppressed) update streams, and answers value queries
// from its predictions; plus the source-side agent that runs the mirror
// filter and decides what to transmit.
//
// Three transports are provided: direct in-process calls
// (deterministic, used by tests and the experiment harness), a binary
// framed TCP protocol with pipelined cumulative acks (internal/dsms/
// wire, cmd/dkf-server and cmd/dkf-source), and a connectionless UDP
// datagram mode feeding the shard-per-core ingest engine (udp.go,
// ingest.go) for very high source counts.
package dsms

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"streamkf/internal/core"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/model"
	"streamkf/internal/stream"
	"streamkf/internal/synopsis"
	"streamkf/internal/telemetry"
	"streamkf/internal/trace"
)

// Catalog resolves model names to stream models. The server and its
// sources share a catalog, which is how "the target sensor activates a
// mirror KF with the same parameters" without shipping matrices.
type Catalog struct {
	mu     sync.RWMutex
	models map[string]model.Model
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{models: make(map[string]model.Model)}
}

// DefaultCatalog returns a catalog preloaded with the paper's models for
// single-attribute streams sampled at interval dt, plus the 2-D tracking
// models of Example 1: "constant", "linear", "acceleration", "jerk",
// "constant2d", "linear2d". Q = R = 0.05 per the paper's experiments.
func DefaultCatalog(dt float64) *Catalog {
	c := NewCatalog()
	const q, r = 0.05, 0.05
	c.Register(model.Constant(1, q, r))
	c.Register(model.Linear(1, dt, q, r))
	c.Register(model.Acceleration(1, dt, q, r))
	c.Register(model.Jerk(1, dt, q, r))
	m2 := model.Constant(2, q, r)
	m2.Name = "constant2d"
	c.Register(m2)
	l2 := model.Linear(2, dt, q, r)
	l2.Name = "linear2d"
	c.Register(l2)
	return c
}

// Register adds (or replaces) a model under its Name.
func (c *Catalog) Register(m model.Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.models[m.Name] = m
}

// Resolve returns the model registered under name.
func (c *Catalog) Resolve(name string) (model.Model, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.models[name]
	if !ok {
		return model.Model{}, fmt.Errorf("dsms: unknown model %q", name)
	}
	return m, nil
}

// Names returns the registered model names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.models))
	for n := range c.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// sourceState is one row of the server's stream table: the installed
// filter and everything else the server knows about one source object. It
// lives by value in the table's chunks, so a *sourceState is good for the
// server's life, and is four cache lines exactly (TestSourceStateSize).
//
// Topology fields (the first cache line, and shard) are guarded by the
// server's mu; runtime fields (from the mutex on) are guarded by the
// per-source mu, so ingest and queries on different sources never
// contend. The locking order is Server.mu before sourceState.mu, and
// Server.mu is never acquired — not even for reading, since a waiting
// writer blocks new readers — while holding a sourceState.mu.
type sourceState struct {
	id      string
	cfg     *core.Config // the deployment its queries fold into; interned, shared, SourceID empty
	queries *query       // its point queries, chained by next in registration order

	// watchers are the alerts and subscriptions over queries this stream
	// feeds (watch.go); nil until the first. Copy-on-write: replaced with
	// Server.mu held for writing, never mutated, so the ingest path loads
	// the list and fires it outside every lock.
	watchers atomic.Pointer[[]watcher]

	history *synopsis.Store // optional historical-query recorder
	ext     *streamExt      // nil until tracing gives the stream a flight recorder
	handle  int32           // the record's place in Server.streams, set at registration
	dead    atomic.Bool     // a dropped registration: the slot is never handed out again

	// version counts data mutations of this stream's filter state —
	// update applies, snapshot restores, replayed advance records. Aggregate
	// memos sum member versions as their change detector (aggregate.go),
	// so it must be bumped by every mutation that can move a query
	// answer, and only by those (Answer's internal advance does not
	// bump: an answer at seq is a pure function of the state the memo
	// stamped). Atomic so memo validation needs no per-source lock.
	version atomic.Int64

	mu      sync.Mutex
	node    core.ServerNode // built in place over a slab block by InstallFor
	lastSeq int             // seq of the last transmitted update (-1 before any)
	ckptSeq int             // last update seq covered by a checkpoint (-1 before any)

	// The stream's own ingest counts: what Stats, /streamz, checkpoints,
	// migration snapshots and — read at scrape time, telemetry.go — the
	// per-stream metric series report, exact for every stream.
	updates, suppressed, bytes int64

	// releasedAt is the topology epoch at which the stream was migrated
	// away, -1 while this server owns it. Set in the lock section that
	// cuts the migration snapshot (shard.go), so no update past the
	// snapshot is ever folded here.
	releasedAt int64

	shard int32 // the engine shard that owns the stream (0 without one); topology, like the first line
}

// streamExt is what only a traced stream carries: its flight recorder, and
// the trace id of the latest applied update, which links query answers back
// to the update that shaped them. The recorder is attached under both
// Server.mu and the stream's mu, so either one reads it.
type streamExt struct {
	rec       *trace.Recorder
	lastTrace int64
}

// rec returns the stream's flight recorder, or nil.
func (st *sourceState) rec() *trace.Recorder {
	if st.ext == nil {
		return nil
	}
	return st.ext.rec
}

const streamChunk = 128 // records a chunk: 40 KB, so a server of a few streams pays for one

// streamTable is the server's handle table: stream records by dense
// 1-based index, in registration order, by value in fixed-size chunks that
// never move. Handles are handed out under Server.mu, never reused, and
// read with no lock at all — by the shard worker, once per run, and by
// whatever walks every stream — so the chunk directory is copy-on-grow
// behind an atomic pointer. A dropped registration leaves a dead record;
// a released stream keeps its own.
type streamTable struct {
	n   atomic.Int32 // handles handed out; written under Server.mu
	dir atomic.Pointer[[]*[streamChunk]sourceState]
}

// next returns the zero record the next handle names, in a new chunk if
// need be. The caller fills it in place — it holds a mutex and atomics, so
// it is never copied — and publishes it by storing its handle in n: whoever
// reads n finds the record complete. Caller holds Server.mu for writing.
func (t *streamTable) next() *sourceState {
	i := int(t.n.Load())
	var dir []*[streamChunk]sourceState
	if p := t.dir.Load(); p != nil {
		dir = *p
	}
	if i/streamChunk == len(dir) {
		dir = append(dir[:len(dir):len(dir)], new([streamChunk]sourceState))
		t.dir.Store(&dir)
	}
	st := &dir[i/streamChunk][i%streamChunk]
	st.handle = int32(i + 1)
	return st
}

// at returns handle h's stream: nil for 0, never handed out, or dropped.
func (t *streamTable) at(h int32) *sourceState {
	if h > 0 && h <= t.n.Load() {
		if st := &(*t.dir.Load())[(h-1)/streamChunk][(h-1)%streamChunk]; !st.dead.Load() {
			return st
		}
	}
	return nil
}

// each calls fn on every live stream, in handle order.
func (t *streamTable) each(fn func(*sourceState)) {
	for h := int32(1); h <= t.n.Load(); h++ {
		if st := t.at(h); st != nil {
			fn(st)
		}
	}
}

// idSlot is half a cache line of the id index: all the datagram path needs
// of a stream, so a hit on an id of up to 12 bytes reads nothing else. Its
// fields are written before its handle is stored and never after.
type idSlot struct {
	handle atomic.Int32 // 0: empty
	tag    uint16       // the top bits of the id's hash under the index's seed
	shard  uint16       // the owning engine shard, copied from the record
	data   *byte        // the canonical id's bytes: the record's own string
	n      uint32       // the id's length
	head   [12]byte     // the id's first 12 bytes, zero-padded
}

// id returns the canonical id — the record's own string, so what a ring slot
// keeps of it compares pointer-equal with the record's.
func (sl *idSlot) id() string { return unsafe.String(sl.data, sl.n) }

// idIndex is the server's one id-keyed table of streams: open addressing,
// linear probing, a power-of-two table at most 3/4 full. It is written only
// under Server.mu — an insert fills an empty slot and publishes it by the
// handle store; a growth, a drop or StartEngine rebuilds the table from the
// handle table's live records and publishes it by the pointer — and read
// with no lock at all. A slot may name a record dropped since the reader
// loaded its table: streamTable.at is the authority on dead records.
type idIndex struct {
	seed maphash.Seed
	n    int // entries; written under Server.mu
	tab  atomic.Pointer[[]idSlot]
}

// find returns id's slot, or nil. id may be a view of a receive buffer: it
// is hashed and compared, never kept.
func (x *idIndex) find(id string) *idSlot {
	tab := *x.tab.Load()
	h := maphash.String(x.seed, id)
	for i := h; ; i++ {
		sl := &tab[i&uint64(len(tab)-1)]
		if sl.handle.Load() == 0 {
			return nil
		}
		if sl.tag != uint16(h>>48) || int(sl.n) != len(id) {
			continue
		}
		// A longer id compares against the canonical string.
		if len(id) <= len(sl.head) && string(sl.head[:len(id)]) == id || sl.id() == id {
			return sl
		}
	}
}

// place fills the first empty slot of st's probe sequence in tab and counts
// the entry.
func (x *idIndex) place(tab []idSlot, st *sourceState) {
	h := maphash.String(x.seed, st.id)
	for i := h; ; i++ {
		if sl := &tab[i&uint64(len(tab)-1)]; sl.handle.Load() == 0 {
			sl.tag, sl.shard, sl.data, sl.n = uint16(h>>48), uint16(st.shard), unsafe.StringData(st.id), uint32(len(st.id))
			copy(sl.head[:], st.id)
			sl.handle.Store(st.handle)
			x.n++
			return
		}
	}
}

// add indexes a record just published in streams, growing the table instead
// if it would pass 3/4 full. Caller holds Server.mu for writing.
func (x *idIndex) add(st *sourceState, streams *streamTable) {
	if tab := *x.tab.Load(); 4*(x.n+1) <= 3*len(tab) {
		x.place(tab, st)
	} else {
		x.rebuild(streams)
	}
}

// rebuild publishes a new table of streams' live records, sized for every
// handle handed out and one more. Caller holds Server.mu for writing.
func (x *idIndex) rebuild(streams *streamTable) {
	size := 16
	for 4*(int(streams.n.Load())+1) > 3*size {
		size *= 2
	}
	tab := make([]idSlot, size)
	x.n = 0
	streams.each(func(st *sourceState) { x.place(tab, st) })
	x.tab.Store(&tab)
}

// queryKind says which of the three query shapes a record is.
type queryKind uint8

const (
	kindPoint     queryKind = iota // one stream's value (stream.Query)
	kindAggregate                  // an aggregate over several streams' values
	kindWindow                     // an aggregate over one stream's trailing readings
	kindAny                        // what Server.answer is asked for untyped
)

// kindLabel words the "unknown … query" errors.
var kindLabel = [...]string{kindPoint: "", kindAggregate: "aggregate ", kindWindow: "window ", kindAny: ""}

// query is one row of the server's query table. Point, aggregate and
// window queries share one id namespace; every record carries its
// streams resolved at registration, so answering and watching never
// look a stream up by id. A point query's record is also its
// registration — what checkpoints and Stats read — chained from its
// stream's record; its model is the stream's, which every query on the
// stream shares.
type query struct {
	src      *sourceState // point, window: the one stream
	agg      *aggregate   // aggregate: definition, members and memo (aggregate.go)
	win      *WindowQuery // window: definition (windowed.go)
	next     *query       // point: the stream's next point query
	id       string       // point: its id
	delta, f float64      // point: its precision width and smoothing factor
}

// kind says which of the three shapes the record is.
func (q *query) kind() queryKind {
	switch {
	case q.agg != nil:
		return kindAggregate
	case q.win != nil:
		return kindWindow
	}
	return kindPoint
}

// streams returns the stream records whose updates move the answer.
func (q *query) streams() []*sourceState {
	if q.agg != nil {
		return q.agg.members
	}
	return []*sourceState{q.src}
}

// Server is the central DSMS node: two tables — one record per stream,
// found by handle or through the id index, and one per query — and nothing
// else keyed by id except the alert-id set.
//
// mu is a read-write lock over the topology only: the tables, and each
// source's registered queries and shared filter configuration. It is taken
// for writing by registration-time calls; the stream table and the id
// index are read with no lock, so ingest takes none server-wide, and an
// Answer takes mu in read mode to find its query. Lock order: mu, then an
// aggregate's memo lock, then a stream's lock; mu is never taken under
// either.
type Server struct {
	catalog *Catalog
	tel     *serverTelemetry

	mu      sync.RWMutex
	ids     idIndex // id → stream, read with no lock
	queries map[string]*query
	alerts  map[string]struct{} // registered alert ids, for the duplicate check
	streams streamTable         // the records themselves, by handle, read with no lock
	configs map[configKey]*core.Config
	blocks  core.BlockPool // what the records' nodes are built over

	// db is the durability layer (write-ahead log + checkpoints); nil
	// on an in-memory server. See persist.go.
	db *durability

	// eng, engIns and shardLogs are written once, under mu, by StartEngine
	// and immutable after; a registration pins its stream to a shard under
	// mu, the shard workers read them without the lock. See ingest.go.
	eng       *engine.Engine
	engIns    *engineInstruments
	shardLogs []runLog

	// traceOpts, guarded by mu, is non-nil while per-stream tracing is
	// on; new and existing sources get a flight recorder built from it.
	traceOpts *trace.Options

	// selfmon, guarded by selfMu, is the self-monitoring subsystem:
	// history ring, self-stream filters, health verdict. Nil until
	// EnableSelfMon. See selfmon.go.
	selfMu  sync.Mutex
	selfmon *SelfMonitor

	// shardIndex and shardEpoch are the cluster identity: the shard
	// index (-1 while standalone) and the highest topology epoch
	// observed. See shard.go.
	shardIndex, shardEpoch atomic.Int64
}

// NewServer returns a server resolving models from catalog. Every
// server carries a telemetry registry; instrumentation is always on
// because recording is allocation-free (see internal/telemetry).
func NewServer(catalog *Catalog) *Server {
	s := &Server{
		catalog: catalog,
		tel:     newServerTelemetry(telemetry.NewRegistry()),
		ids:     idIndex{seed: maphash.MakeSeed()},
		queries: make(map[string]*query),
		alerts:  make(map[string]struct{}),
		configs: make(map[configKey]*core.Config),
	}
	s.ids.rebuild(&s.streams)
	s.shardIndex.Store(-1)
	return s
}

// Telemetry returns the server's metric registry — what the admin
// endpoint scrapes and tests assert against.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel.reg }

// EnableTracing turns on the per-stream flight recorder: every source —
// already registered or yet to come — gets a ring of recent trace
// events and a divergence audit, served by the /tracez admin endpoints.
// Recording is allocation-free, so tracing is safe to leave on in
// production; the knob exists because the ring costs memory per stream.
func (s *Server) EnableTracing(opts trace.Options) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := opts
	s.traceOpts = &o
	s.streams.each(func(st *sourceState) {
		st.mu.Lock()
		if st.ext == nil {
			st.ext = &streamExt{rec: trace.New(o)}
		}
		st.mu.Unlock()
	})
}

// TraceEnabled reports whether per-stream tracing is on.
func (s *Server) TraceEnabled() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.traceOpts != nil
}

// source returns the live stream record for sourceID, or nil, with no
// lock: the index names the handle, the handle table says if it lives.
func (s *Server) source(sourceID string) *sourceState {
	if sl := s.ids.find(sourceID); sl != nil {
		return s.streams.at(sl.handle.Load())
	}
	return nil
}

// stream resolves a stream by handle, checked against its id; a zero,
// stale or foreign handle falls back to the lookup by id.
func (s *Server) stream(handle int32, sourceID string) *sourceState {
	if st := s.streams.at(handle); st != nil && st.id == sourceID {
		return st
	}
	return s.source(sourceID)
}

// query returns the record registered under queryID, or nil, under the
// topology read-lock.
func (s *Server) query(queryID string) *query {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.queries[queryID]
}

// HasQuery reports whether a query id — point, aggregate or window — is
// already registered: how a restarted process discovers that its
// startup registrations were recovered from the checkpoint and need not
// (must not) be repeated.
func (s *Server) HasQuery(queryID string) bool { return s.query(queryID) != nil }

// link returns the link of the stream's query chain that holds q — for nil,
// the chain's end. Caller holds Server.mu.
func (st *sourceState) link(q *query) **query {
	p := &st.queries
	for *p != q {
		p = &(*p).next
	}
	return p
}

// nQueries counts the stream's point queries. Caller holds Server.mu.
func (st *sourceState) nQueries() (n int) {
	for q := st.queries; q != nil; q = q.next {
		n++
	}
	return n
}

// Register installs a continuous query. Multiple queries over the same
// source share one filter pair under the paper's simplification: the
// effective precision width at the source is the minimum Δ over its
// queries (every query's constraint is then satisfied), and the smallest
// requested smoothing factor wins. Registration must complete before the
// source sends its bootstrap update; afterwards it fails, because
// reinstalling a filter would desynchronize the mirror.
func (s *Server) Register(q stream.Query) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.registerLocked(q)
	return err
}

// registerLocked is Register with s.mu held for writing — also how
// aggregate and window registrations install their per-stream queries.
// It returns the stream record the query now belongs to.
func (s *Server) registerLocked(q stream.Query) (*sourceState, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	m, err := s.catalog.Resolve(q.Model)
	if err != nil {
		return nil, err
	}
	// One id namespace across kinds. Checked before logging: replay sees
	// point queries only, so it could not repeat a refusal that an
	// aggregate or window record caused.
	if s.queries[q.ID] != nil {
		return nil, fmt.Errorf("dsms: duplicate query id %s", q.ID)
	}
	// Log the registration attempt before the remaining in-memory
	// checks: a record whose registration is then rejected (source
	// streaming, model conflict) is rejected identically at replay, so
	// the log never needs unwinding.
	if err := s.db.appendRegister(q); err != nil {
		return nil, fmt.Errorf("dsms: logging registration: %w", err)
	}
	st := s.source(q.SourceID)
	if st == nil {
		st = s.streams.next()
		st.id, st.lastSeq, st.ckptSeq, st.releasedAt = q.SourceID, -1, -1, -1
		if s.eng != nil {
			st.shard = int32(s.eng.ShardFor(st.id))
		}
		if s.traceOpts != nil {
			st.ext = &streamExt{rec: trace.New(*s.traceOpts)}
		}
		s.streams.n.Store(st.handle)
		if st.handle == 1 {
			s.tel.reg.Table("source", streamColumns[:], s.streamRows)
		}
		s.ids.add(st, &s.streams)
	}
	if st.node.Installed() { // installs hold mu too
		return nil, fmt.Errorf("dsms: source %s already streaming; cannot register %s", q.SourceID, q.ID)
	}
	cfg := core.Config{Model: m, Delta: q.Delta, F: q.F}
	if st.queries != nil {
		// Fold into the shared configuration. All queries must agree on
		// the model — mixed models over one source would need separate
		// filter pairs, which the paper excludes ("we do not have
		// queries with overlapping sources").
		if st.cfg.Model.Name != m.Name {
			return nil, fmt.Errorf("dsms: source %s already registered with model %s; query %s wants %s",
				q.SourceID, st.cfg.Model.Name, q.ID, m.Name)
		}
		cfg = *st.cfg
		if q.Delta < cfg.Delta {
			cfg.Delta = q.Delta
		}
		if q.F > 0 && (cfg.F == 0 || q.F < cfg.F) {
			cfg.F = q.F
		}
	}
	st.cfg = s.internConfig(cfg)
	pq := &query{src: st, id: q.ID, delta: q.Delta, f: q.F}
	*st.link(nil), s.queries[q.ID] = pq, pq
	return st, nil
}

// configKey names a deployment: a catalogued model, a precision width, F.
type configKey struct {
	model    string
	delta, f float64
}

// internConfig returns the one core.Config every stream deployed as cfg
// shares — read-only, its SourceID empty; InstallFor fills that in on the
// copy it hands out. A model re-registered in the catalog under the same
// name gets a config of its own. Caller holds s.mu for writing.
func (s *Server) internConfig(cfg core.Config) *core.Config {
	key := configKey{cfg.Model.Name, cfg.Delta, cfg.F}
	c := s.configs[key]
	if c == nil || c.Model.H != cfg.Model.H || c.Model.Q != cfg.Model.Q || c.Model.R != cfg.Model.R {
		c = new(core.Config) // not &cfg: a hit must not allocate
		*c = cfg
		s.configs[key] = c
	}
	return c
}

// adoptOrRegisterLocked installs a point query that may already be
// there: the implicit per-stream query under an aggregate or window (a
// durable server recovers those from its log before the aggregate or
// window itself is re-installed at startup), or a migrated stream's
// query the router pre-registered on the target. An existing point
// query on the same stream is adopted; created tells the caller whether
// a rollback must drop it. Caller holds s.mu for writing.
func (s *Server) adoptOrRegisterLocked(sub stream.Query) (st *sourceState, created bool, err error) {
	if q := s.queries[sub.ID]; q != nil {
		if q.kind() != kindPoint || q.src.id != sub.SourceID {
			return nil, false, fmt.Errorf("dsms: duplicate query id %s", sub.ID)
		}
		return q.src, false, nil
	}
	st, err = s.registerLocked(sub)
	return st, err == nil, err
}

// dropLocked removes a registered (not yet streaming) point query — the
// rollback of adoptOrRegisterLocked. Caller holds s.mu for writing.
func (s *Server) dropLocked(queryID string) {
	q := s.queries[queryID]
	st := q.src
	delete(s.queries, queryID)
	if *st.link(q) = q.next; st.queries == nil {
		// Under the stream's lock, so an apply that resolved the handle
		// before it died finds no node instead of a block given away.
		st.mu.Lock()
		st.dead.Store(true)
		s.blocks.Put(st.node.Release())
		st.mu.Unlock()
		s.ids.rebuild(&s.streams) // without the dead record
	}
}

// InstallFor returns the filter configuration a connecting source agent
// must run — the handshake payload. It errors when no query targets the
// source.
func (s *Server) InstallFor(sourceID string) (core.Config, error) {
	s.mu.RLock() // held throughout: a drop of the registration waits
	defer s.mu.RUnlock()
	st := s.source(sourceID)
	if st == nil || st.queries == nil {
		return core.Config{}, fmt.Errorf("dsms: no query registered for source %s", sourceID)
	}
	cfg := *st.cfg
	cfg.SourceID = sourceID
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.node.Installed() {
		if err := st.node.Install(st.cfg, &s.blocks); err != nil {
			return core.Config{}, err
		}
	}
	return cfg, nil
}

// installReply is the handshake reply both transports send a connecting
// source: the configuration InstallFor installs plus ResumeSeq, which
// tells a reconnecting source with live mirror state how far this
// server's (possibly crash-recovered) filter has advanced — resend
// unacked updates past it, no re-bootstrap. A fresh source ignores it
// and bootstraps.
func (s *Server) installReply(sourceID string) (wire.Install, error) {
	cfg, err := s.InstallFor(sourceID)
	if err != nil {
		return wire.Install{}, err
	}
	return wire.Install{SourceID: cfg.SourceID, Model: cfg.Model.Name, Delta: cfg.Delta, F: cfg.F, ResumeSeq: s.ResumeSeq(sourceID)}, nil
}

// HandleUpdate folds one transmitted update — a run of one — into the
// source's server filter, then fires the stream's watchers (outside all
// locks: they re-enter the answer path). Only that source's runtime lock
// is held meanwhile, so different sources' updates fold in concurrently.
func (s *Server) HandleUpdate(u core.Update) error {
	run := [1]core.Update{u}
	_, err := s.applyRun(run[:], nil, nil)
	s.maybeCheckpoint()
	return err
}

// rxFrame is what a TCP connection keeps beside a received update: the
// route index its ack must name (-1: a source's own update, acked by seq
// alone), its seq, its update frame as received — what the log records
// and, by its size, a trace, valid in the read buffer while the run is —
// and the evidence trailer it carried (nil: none), still in its payload.
type rxFrame struct {
	route, seq int64
	frame      []byte
	ev         *wire.Evidence
}

// What applyRun reports beside the filter's own refusals.
var (
	errUninstalled  = errors.New("dsms: update for uninstalled source")
	errNotLogged    = errors.New("applied but not logged")
	errDuplicate    = errors.New("dsms: datagram at or below the last applied seq")
	errPreBootstrap = errors.New("dsms: datagram ahead of the stream's bootstrap")
)

// applyRun is the one ingest body of both transports (DESIGN §14). It
// folds the leading updates of run that are one stream's — oldest first;
// frames, if any, parallel to run — into that stream under one lock
// section: one lookup, applyLocked per update with its frame added to the
// run's WAL record beside it, one notify at the newest applied seq. It
// returns how many it applied, and the caller hands in the rest; an error
// says why it stopped at run[n]: that update was refused, and the caller
// does its transport's thing with the refusal and goes on from run[n+1:].
// Only an error
// wrapping errNotLogged refuses nothing: the n updates were applied but
// are not all in the log.
//
// Two things under the lock go by batch. nil is a synchronous caller (TCP
// connection, HandleUpdate): the frames go to the stream's own buffer
// and are committed as one record before the lock is released, so an ack
// follows the commit (DESIGN §11). Non-nil is a shard worker's
// buffer: the records wait there for the commit that ends the drained
// batch, and what only a lossy, reordering transport delivers is refused
// first — an update at or below the last applied seq (a late duplicate
// bootstrap must not re-initialize the filter) and a non-bootstrap update
// ahead of the bootstrap (whose loss then only delays convergence).
func (s *Server) applyRun(run []core.Update, frames []rxFrame, batch *runLog) (n int, err error) {
	st := s.stream(run[0].Handle, run[0].SourceID)
	if st == nil {
		return 0, errUninstalled
	}
	wl, durable := batch, s.db != nil && !s.db.replaying
	var (
		f       rxFrame
		sampled bool
		tid     int64
		logErr  error
	)
	st.mu.Lock()
	if wl == nil && durable {
		wl = runLogs.Get().(*runLog)
		defer runLogs.Put(wl)
	}
	for n < len(run) && run[n].SourceID == st.id && logErr == nil {
		u := &run[n]
		if frames != nil {
			f = frames[n]
		}
		switch {
		case batch != nil && st.lastSeq >= 0 && u.Seq <= st.lastSeq:
			err = errDuplicate
		case batch != nil && st.lastSeq < 0 && !u.Bootstrap:
			err = errPreBootstrap
		default:
			sampled, tid, err = s.applyLocked(st, u, f.ev, len(f.frame))
		}
		if err != nil {
			break
		}
		n++
		if durable {
			// After the apply, under the same lock: a rejected update
			// never enters the log, and record order is apply order.
			var size int
			if size, logErr = s.db.add(wl, f.frame, u); logErr == nil && sampled {
				st.rec().Record(&trace.Event{TraceID: tid, Seq: int64(u.Seq), Kind: trace.KindWAL, Aux: int64(size)})
			}
		}
	}
	if batch == nil && durable {
		if cerr := s.db.commit(wl); logErr == nil {
			logErr = cerr
		}
	}
	st.mu.Unlock()
	if n > 0 {
		s.notify(st, run[n-1].Seq) // the post-apply hook, once per run
	}
	if logErr != nil {
		err = fmt.Errorf("dsms: updates of %s through seq %d %w: %w", st.id, run[n-1].Seq, errNotLogged, logErr)
	}
	return n, err
}

// applyLocked is applyRun's per-update step: filter step, history,
// suppression accounting, trace and audit. evid is the evidence the
// update carried (nil: none) and wireBytes the received frame size (0:
// not in a frame of its own). Caller holds st.mu. Returns whether this
// apply was trace-sampled, and its trace id.
func (s *Server) applyLocked(st *sourceState, u *core.Update, evid *wire.Evidence, wireBytes int) (sampled bool, tid int64, err error) {
	if !st.node.Installed() {
		return false, 0, errUninstalled
	}
	if st.releasedAt >= 0 {
		// A stale owner: this stream migrated away. Rejecting — never
		// folding — keeps exactly one shard authoritative.
		return false, 0, fmt.Errorf("dsms: source %s released from this shard", u.SourceID)
	}
	if err := st.node.ApplyUpdate(*u); err != nil {
		return false, 0, err
	}
	st.version.Add(1)
	if err := st.recordHistory(u.Seq, u.Values, u.Bootstrap); err != nil {
		return false, 0, fmt.Errorf("dsms: recording history for %s: %w", u.SourceID, err)
	}
	// Every sequence number skipped between consecutive transmissions is
	// a reading the source suppressed (or outlier-rejected): the DKF
	// contract is that the server's prediction covered it. Counting the
	// gap server-side keeps the suppression ratio observable without any
	// extra wire traffic.
	if !u.Bootstrap && st.lastSeq >= 0 && u.Seq > st.lastSeq+1 {
		st.suppressed += int64(u.Seq - st.lastSeq - 1)
	}
	st.lastSeq = u.Seq
	st.updates++
	st.bytes += int64(u.WireBytes())
	// Trace the apply under the same lock, after the filter stepped:
	// the recorded evidence (innovation, NIS) is exactly what this
	// update produced. st.cfg is written only before the source starts
	// streaming, so reading Delta here needs no topology lock.
	if evid != nil {
		tid = evid.TraceID()
	}
	rec := st.rec()
	sampled = rec.Sampled(int64(u.Seq))
	innov, innovOK := st.node.LastInnovation()
	if sampled {
		if wireBytes > 0 {
			rec.Record(&trace.Event{TraceID: tid, Seq: int64(u.Seq), Kind: trace.KindWireRx, Aux: int64(wireBytes)})
		}
		if evid != nil {
			// The source's decision event, recorded as received: its At is
			// source time, so spliced cross-node trails sort by it.
			d := evid.Event(int64(u.Seq))
			rec.Record(&d)
		}
		ev := trace.Event{TraceID: tid, Seq: int64(u.Seq), Kind: trace.KindApply, Delta: st.cfg.Delta}
		if len(u.Values) > 0 {
			ev.Value = u.Values[0]
		}
		if u.Bootstrap {
			ev.Dec = trace.DecisionBootstrap
		} else if innovOK {
			ev.Residual = innov
			if nis, ok := st.node.LastNIS(); ok {
				ev.NIS = nis
			}
		}
		rec.Record(&ev)
	}
	if rec != nil {
		st.ext.lastTrace = tid
		// The divergence audit sees every non-bootstrap apply, sampled
		// or not: a transmitted update whose server-side innovation is
		// within δ is mirror-desync evidence the audit must not miss.
		if !u.Bootstrap && innovOK {
			rec.Audit().Observe(int64(u.Seq), innov, st.cfg.Delta)
		}
	}
	return sampled, tid, nil
}

// Answer evaluates the named point query at reading index seq: it
// returns the source's prediction at seq without advancing the filter.
// Only the owning source's runtime lock is taken, so
// queries over different streams evaluate in parallel.
func (s *Server) Answer(queryID string, seq int) ([]float64, error) {
	return s.answer(queryID, kindPoint, seq, nil)
}

// answer is the one entry that maps (query id, seq) to values for every
// kind of query — what a TCP query frame, an alert and a subscription
// read as kindAny, and Answer, AnswerAggregate and AnswerWindow as their
// own kind. A point query answers its predicted values, a window query
// its scalar, an aggregate its finished scalar — or, when registered
// Partial and read as kindAny, the mergeable partial vector a cluster
// router folds. A scalar is appended to buf (nil for a new slice).
func (s *Server) answer(queryID string, want queryKind, seq int, buf []float64) ([]float64, error) {
	q := s.query(queryID)
	if q == nil || want != kindAny && q.kind() != want {
		return nil, fmt.Errorf("dsms: unknown %squery %s", kindLabel[want], queryID)
	}
	switch q.kind() {
	case kindPoint:
		return q.src.answer(seq)
	case kindAggregate:
		v, partial, err := q.agg.at(s.tel, seq)
		if err != nil {
			return nil, err
		}
		if q.agg.def.Partial && want == kindAny {
			return partial, nil
		}
		return append(buf, v), nil
	default:
		v, err := q.src.answerWindow(q.win, seq)
		return append(buf, v), err
	}
}

// answer returns the stream's prediction at seq. It does not advance the
// filter: only an applied update does.
func (st *sourceState) answer(seq int) ([]float64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.node.Installed() {
		return nil, fmt.Errorf("dsms: source %s not yet streaming", st.id)
	}
	vals, ok := st.node.EstimateAt(seq)
	if !ok {
		return nil, fmt.Errorf("dsms: source %s has no bootstrap yet", st.id)
	}
	if rec := st.rec(); rec != nil {
		// Close the causal chain: this answer was shaped by the stream's
		// latest applied update, so it inherits that update's trace id.
		ev := trace.Event{TraceID: st.ext.lastTrace, Seq: int64(seq), Kind: trace.KindAnswer}
		if len(vals) > 0 {
			ev.Value = vals[0]
		}
		rec.Record(&ev)
	}
	return vals, nil
}

// Stats reports one source's ingest counters, filter position, and
// filter health — the per-stream record behind the /streamz endpoint
// (hence the JSON tags).
type Stats struct {
	SourceID string  `json:"source_id"`
	Queries  int     `json:"queries"`
	Model    string  `json:"model,omitempty"`
	Delta    float64 `json:"delta,omitempty"`

	Updates        int     `json:"updates"`
	Suppressed     int     `json:"suppressed"`
	SuppressionPct float64 `json:"suppression_pct"`
	Bytes          int     `json:"bytes"`
	Seq            int     `json:"seq"`

	NIS         float64 `json:"nis"`
	NISValid    bool    `json:"nis_valid"`
	Whiteness   float64 `json:"whiteness"`
	HealthReady bool    `json:"health_ready"`
	Healthy     bool    `json:"healthy"`

	// Durability status (meaningful when Durable): every update up to
	// Seq is in the write-ahead log, and CheckpointSeq is the last
	// update sequence captured by a checkpoint (-1 before the first).
	Durable       bool `json:"durable"`
	CheckpointSeq int  `json:"checkpoint_seq,omitempty"`
}

// stats reads the runtime half of the stream's Stats under its lock.
func (st *sourceState) stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	h := st.node.Health()
	return Stats{CheckpointSeq: st.ckptSeq, Updates: int(st.updates), Suppressed: int(st.suppressed), Bytes: int(st.bytes), Seq: st.node.Seq(),
		NIS: h.NIS, NISValid: h.NISValid, Whiteness: h.Whiteness, HealthReady: h.Ready, Healthy: h.Healthy}
}

// Stats returns per-source statistics, sorted by source id. The update
// and byte counts are the stream record's own — exact for every stream,
// including those past the registry's per-stream series cap. Each source's
// node state is read under its runtime lock, so the snapshot of any one
// source is consistent (the set of sources is fixed under the topology
// read-lock, but sources keep streaming while others are read).
func (s *Server) Stats() []Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Stats, 0, s.streams.n.Load())
	s.streams.each(func(st *sourceState) {
		stat := st.stats()
		stat.SourceID, stat.Queries, stat.Model, stat.Delta, stat.Durable = st.id, st.nQueries(), st.cfg.Model.Name, st.cfg.Delta, s.db != nil
		if total := stat.Updates + stat.Suppressed; total > 0 {
			stat.SuppressionPct = 100 * float64(stat.Suppressed) / float64(total)
		}
		out = append(out, stat)
	})
	sort.Slice(out, func(i, j int) bool { return out[i].SourceID < out[j].SourceID })
	return out
}

// WALStreamz is the durability block of the /streamz status document.
type WALStreamz struct {
	Segments             int64   `json:"segments"`
	Checkpoints          int64   `json:"checkpoints"`
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"` // -1 before the first checkpoint
}

// Streamz is the full /streamz status document: server-wide durability,
// engine and cluster state wrapped around the per-stream records.
type Streamz struct {
	Durable      bool            `json:"durable"`
	TraceEnabled bool            `json:"trace_enabled"`
	WAL          *WALStreamz     `json:"wal,omitempty"`
	Engine       *EngineStreamz  `json:"engine,omitempty"`
	Cluster      *ClusterStreamz `json:"cluster,omitempty"`
	Streams      []Stats         `json:"streams"`
}

// checkpointAge is the seconds since the last WAL checkpoint, -1 with no
// WAL or before the first.
func (s *Server) checkpointAge() float64 {
	if s.db != nil {
		if t := s.db.lastCkpt.Load(); t > 0 {
			return time.Since(time.Unix(0, t)).Seconds()
		}
	}
	return -1
}

// Streamz assembles the status document the /streamz endpoint serves.
func (s *Server) Streamz() Streamz {
	z := Streamz{Durable: s.db != nil, TraceEnabled: s.TraceEnabled(), Streams: s.Stats()}
	if s.db != nil {
		w := WALStreamz{CheckpointAgeSeconds: s.checkpointAge()}
		if v, ok := s.tel.reg.Get("streamkf_wal_segments"); ok {
			w.Segments = int64(v)
		}
		if v, ok := s.tel.reg.Get("streamkf_wal_checkpoints_total"); ok {
			w.Checkpoints = int64(v)
		}
		z.WAL = &w
	}
	z.Engine = s.engineStreamz()
	z.Cluster = s.clusterStreamz()
	return z
}

// StreamTrace is one stream's decision trail: its divergence audit plus
// the flight recorder's surviving events, oldest first — the
// /tracez/stream/{id} document.
type StreamTrace struct {
	Enabled  bool                `json:"enabled"`
	SourceID string              `json:"source_id"`
	Model    string              `json:"model,omitempty"`
	Delta    float64             `json:"delta,omitempty"`
	Audit    trace.AuditSnapshot `json:"audit"`
	Events   []trace.EventView   `json:"events"`
}

// TraceStream returns the decision trail for a source id or query id.
func (s *Server) TraceStream(id string) (StreamTrace, error) {
	s.mu.RLock()
	st := s.source(id)
	if q := s.queries[id]; st == nil && q != nil {
		st = q.src // nil for an aggregate, which has no single trail
	}
	if st == nil {
		s.mu.RUnlock()
		return StreamTrace{}, fmt.Errorf("dsms: unknown stream or query %s", id)
	}
	out, rec := StreamTrace{SourceID: st.id, Model: st.cfg.Model.Name, Delta: st.cfg.Delta}, st.rec() // attached under mu
	s.mu.RUnlock()
	if rec == nil {
		return out, nil
	}
	out.Enabled, out.Audit = true, rec.Audit().Snapshot()
	evs := rec.Events()
	out.Events = make([]trace.EventView, len(evs))
	for i := range evs {
		out.Events[i] = evs[i].View()
	}
	return out, nil
}

// TraceEntry is one trace event tagged with its stream — the /tracez
// cross-stream listing element.
type TraceEntry struct {
	SourceID string `json:"source_id"`
	trace.EventView
}

// TraceRecent returns up to limit recent trace events across all
// streams, newest first. source narrows to one stream; a nonzero kind
// or decision keeps only matching events.
func (s *Server) TraceRecent(limit int, source string, kind trace.Kind, dec trace.Decision) []TraceEntry {
	recs := make(map[string]*trace.Recorder)
	s.mu.RLock()
	s.streams.each(func(st *sourceState) { recs[st.id] = st.rec() }) // attached under mu
	s.mu.RUnlock()
	return RecentTrace(recs, limit, source, kind, dec)
}

// RecentTrace is the /tracez listing over a set of per-stream flight
// recorders (nil recorders are skipped), shared with the router.
func RecentTrace(recs map[string]*trace.Recorder, limit int, source string, kind trace.Kind, dec trace.Decision) []TraceEntry {
	if limit <= 0 {
		limit = 100
	}
	var out []TraceEntry
	for id, rec := range recs {
		if rec == nil || (source != "" && id != source) {
			continue
		}
		for _, ev := range rec.Events() {
			if kind != 0 && ev.Kind != kind {
				continue
			}
			if dec != trace.DecisionNone && ev.Dec != dec {
				continue
			}
			out = append(out, TraceEntry{SourceID: id, EventView: ev.View()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AtUnixNs > out[j].AtUnixNs })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Agent is the source-side runtime: it runs the DKF source node an
// install handshake configured over a reading stream, and ships updates
// through a transport. The dialed agents (RemoteAgent, UDPAgent) embed
// one and add only their transport.
type Agent struct {
	cfg    core.Config
	node   *core.SourceNode
	send   core.Transport
	tracer *trace.Recorder // optional local flight recorder
}

// NewAgent builds an agent for cfg.SourceID from an installed
// configuration (obtained via Server.InstallFor or a dial's handshake)
// and a transport for updates.
func NewAgent(cfg core.Config, send core.Transport) (*Agent, error) {
	if send == nil {
		return nil, errors.New("dsms: nil transport")
	}
	node, err := core.NewSourceNode(cfg)
	if err != nil {
		return nil, err
	}
	return &Agent{cfg: cfg, node: node, send: send}, nil
}

// dialedAgent is the shared tail of the TCP and UDP dials: the install
// reply names the procedure, the catalog resolves its model, and the
// mirror agent is built over send with the dial's tracing attached
// (opts.Window plays no part).
func dialedAgent(inst wire.Install, sourceID string, catalog *Catalog, send core.Transport, opts DialOptions) (*Agent, error) {
	m, err := catalog.Resolve(inst.Model)
	if err != nil {
		return nil, err
	}
	a, err := NewAgent(core.Config{SourceID: sourceID, Model: m, Delta: inst.Delta, F: inst.F}, send)
	if err != nil {
		return nil, err
	}
	if opts.Trace {
		a.SetTrace(trace.New(trace.Options{RingSize: opts.TraceRing, Sample: opts.TraceSample}))
	}
	return a, nil
}

// SetTrace attaches a flight recorder to the agent's source node. Call
// before streaming; a nil recorder (the default) records nothing and
// costs one nil check per reading.
func (a *Agent) SetTrace(tr *trace.Recorder) {
	a.tracer = tr
	a.node.SetTrace(tr)
}

// Tracer returns the agent's local flight recorder, or nil when none
// was attached.
func (a *Agent) Tracer() *trace.Recorder { return a.tracer }

// LastDecision returns the evidence behind the node's most recent
// send/suppress decision — what the TCP transport ships as a traced
// update's trailer.
func (a *Agent) LastDecision() trace.Event { return a.node.LastDecision() }

// Offer processes one reading, transmitting if the protocol requires.
// It returns whether an update was sent.
func (a *Agent) Offer(r stream.Reading) (sent bool, err error) {
	u, _, err := a.node.Process(r)
	if err != nil {
		return false, err
	}
	if u == nil {
		return false, nil
	}
	return true, a.send.Send(*u)
}

// Run drives an entire source stream through the agent.
func (a *Agent) Run(src stream.Source) error {
	for {
		r, ok := src.Next()
		if !ok {
			return nil
		}
		if _, err := a.Offer(r); err != nil {
			return err
		}
	}
}

// Stats exposes the underlying source node counters.
func (a *Agent) Stats() core.SourceStats { return a.node.Stats() }
