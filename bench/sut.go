package main

// sut.go is the benchmark's only view of the system under test: every
// import of streamkf/internal/... is in this file, behind the few small
// types the rest of the benchmark uses. A rename or merge inside the
// serving stack (RemoteAgent/UDPAgent, HandleUpdate, the engine sink)
// needs a follow-up here and nowhere else.

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/dsms/cluster"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/kalman"
	"streamkf/internal/mat"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/wal"
)

// udpWindow is the datagram senders' flow-control window: a sender looks
// at the engine's applied watermark every udpWindow updates and waits
// until at most udpWindow are in flight, so at most twice that ever are.
// Every ring is sized at four windows, so that even with all of them in
// one ring and its worker descheduled nothing is shed.
const udpWindow = 2048

// sutSpec selects the deployment a workload runs against.
type sutSpec struct {
	udp     bool // datagram ingest through the shard engine; TCP only answers queries
	durable bool // dsms.Open over a WAL directory, fsync "interval", checkpoint every 10,000 updates (dkf-server's defaults)
	routed  bool // cluster.Router in front of two shards
}

// source is the source side of one stream: the mirror filter, the
// suppression decision and the connection that carries what it sends.
type source interface {
	Offer(seq int, v float64) (sent bool, err error)
	// Drain returns once the server has applied everything sent so far.
	Drain() error
	Counts() (readings, updates int)
	Close() error
}

// asker is one query connection.
type asker interface {
	Ask(query string, seq int) ([]float64, error)
	Close() error
}

// system is one deployment on loopback sockets: the server or shards,
// their listeners and, when routed, the router.
type system struct {
	catalog *dsms.Catalog
	servers []*dsms.Server
	tcps    []*dsms.TCPServer
	udp     *dsms.UDPServer
	router  *cluster.Router
	addr    string // where TCP sources and query clients dial

	// sentUDP counts the updates handed to the datagram socket by every
	// sender of this system; sentUDP − Engine.Applied() is what is in
	// flight.
	sentUDP atomic.Int64
}

func openSystem(spec sutSpec, walDir string) (*system, error) {
	s := &system{catalog: dsms.DefaultCatalog(1)}
	shards := 1
	if spec.routed {
		shards = 2
	}
	var addrs []string
	for i := 0; i < shards; i++ {
		srv := dsms.NewServer(s.catalog)
		if spec.durable {
			var err error
			srv, err = dsms.Open(s.catalog, filepath.Join(walDir, strconv.Itoa(i)),
				dsms.DurabilityOptions{Sync: wal.SyncInterval, CheckpointEvery: 10000})
			if err != nil {
				s.Close()
				return nil, err
			}
		}
		if spec.routed {
			srv.SetShardInfo(i, 0)
		}
		s.servers = append(s.servers, srv)
		ts, err := dsms.NewTCPServer(srv, "127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, err
		}
		go ts.Serve() // returns when Close, which waits for it, closes the listener
		s.tcps = append(s.tcps, ts)
		addrs = append(addrs, ts.Addr())
	}
	s.addr = addrs[0]
	if spec.routed {
		r, err := cluster.NewRouter("127.0.0.1:0", addrs, cluster.Options{})
		if err != nil {
			s.Close()
			return nil, err
		}
		go r.Serve() // ends with r.Close
		s.router, s.addr = r, r.Addr()
	}
	if spec.udp {
		// Shards default to GOMAXPROCS and lanes to min(4, GOMAXPROCS).
		us, err := dsms.NewUDPServer(s.servers[0], "127.0.0.1:0", dsms.UDPServerOptions{
			Engine: dsms.EngineOptions{RingSize: 4 * udpWindow},
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		go us.Serve() // ends with us.Close
		s.udp = us
	}
	return s, nil
}

func (s *system) Close() error {
	var errs []error
	if s.router != nil {
		errs = append(errs, s.router.Close())
	}
	if s.udp != nil {
		errs = append(errs, s.udp.Close())
		s.servers[0].Engine().Close()
	}
	for _, ts := range s.tcps {
		errs = append(errs, ts.Close())
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Close())
	}
	return errors.Join(errs...)
}

// register installs one continuous query; it must precede the stream's
// bootstrap.
func (s *system) register(query, sourceID, model string, delta float64) error {
	q := stream.Query{ID: query, SourceID: sourceID, Model: model, Delta: delta}
	if s.router != nil {
		return s.router.RegisterQuery(q)
	}
	return s.servers[0].Register(q)
}

// registerSum installs a sum aggregate whose members each get delta.
func (s *system) registerSum(query string, members []string, model string, delta float64) error {
	q := dsms.AggregateQuery{ID: query, SourceIDs: members, Func: dsms.AggSum, Model: model,
		Delta: delta * float64(len(members))}
	if s.router != nil {
		return s.router.RegisterAggregate(q)
	}
	return s.servers[0].RegisterAggregate(q)
}

func (s *system) dialQuery() (asker, error) {
	q, err := dsms.DialQuery(s.addr)
	if err != nil {
		return nil, err // not a nil *QueryClient inside a non-nil asker
	}
	return q, nil
}

// dialSource connects the source side of one stream over the system's
// ingest transport. window is the TCP ack window (1 = an ack per update).
func (s *system) dialSource(id string, window int) (source, error) {
	r := stream.Reading{Values: make([]float64, 1)}
	if s.udp != nil {
		// One copy of the bootstrap: loopback does not lose it, and then
		// every update sent is exactly one update applied.
		a, err := dsms.DialSourceUDP(s.udp.Addr().String(), id, s.catalog, dsms.UDPDialOptions{BootstrapCopies: 1})
		if err != nil {
			return nil, err
		}
		return &udpSource{a: a, sys: s, r: r}, nil
	}
	a, err := dsms.DialSourceOptions(s.addr, id, s.catalog, dsms.DialOptions{Window: window})
	if err != nil {
		return nil, err
	}
	return &tcpSource{a: a, r: r}, nil
}

// dialShard registers a stream on the first shard itself and connects a
// window-1 source straight to it, past the router.
func (s *system) dialShard(id, model string, delta float64) (source, error) {
	if err := s.servers[0].Register(stream.Query{ID: "q/" + id, SourceID: id, Model: model, Delta: delta}); err != nil {
		return nil, err
	}
	a, err := dsms.DialSourceOptions(s.tcps[0].Addr(), id, s.catalog, dsms.DialOptions{Window: 1})
	if err != nil {
		return nil, err
	}
	return &tcpSource{a: a, r: stream.Reading{Values: make([]float64, 1)}}, nil
}

func setReading(r *stream.Reading, seq int, v float64) {
	r.Seq, r.Time, r.Values[0] = seq, float64(seq), v
}

type tcpSource struct {
	a *dsms.RemoteAgent
	r stream.Reading
}

func (t *tcpSource) Offer(seq int, v float64) (bool, error) {
	setReading(&t.r, seq, v)
	return t.a.Offer(t.r)
}
func (t *tcpSource) Drain() error { return t.a.Drain() }
func (t *tcpSource) Close() error { return t.a.Close() }
func (t *tcpSource) Counts() (int, int) {
	st := t.a.Stats()
	return st.Readings, st.Updates
}

type udpSource struct {
	a   *dsms.UDPAgent
	sys *system
	r   stream.Reading
}

func (u *udpSource) Offer(seq int, v float64) (bool, error) {
	setReading(&u.r, seq, v)
	sent, err := u.a.Offer(u.r)
	if sent {
		u.sys.sentUDP.Add(1)
	}
	return sent, err
}
func (u *udpSource) Drain() error { u.sys.waitInFlight(0); return nil }
func (u *udpSource) Close() error { return u.a.Close() }
func (u *udpSource) Counts() (int, int) {
	st := u.a.Stats()
	return st.Readings, st.Updates
}

// fanin sends raw updates of many streams, no source filters, through
// one MTU-packing batcher on one socket.
type fanin struct {
	b   *dsms.UDPBatcher
	sys *system
	u   core.Update
}

func (s *system) dialFanin() (*fanin, error) {
	b, err := dsms.DialUDPBatcher(s.udp.Addr().String(), 0)
	if err != nil {
		return nil, err
	}
	return &fanin{b: b, sys: s, u: core.Update{Values: make([]float64, 1)}}, nil
}

func (f *fanin) Send(id string, seq int, v float64) error {
	f.u.SourceID, f.u.Seq, f.u.Time, f.u.Bootstrap = id, seq, float64(seq), seq == 0
	f.u.Values[0] = v
	f.sys.sentUDP.Add(1)
	return f.b.Send(f.u)
}
func (f *fanin) Flush() error { return f.b.Flush() }
func (f *fanin) Close() error { return f.b.Close() }

// waitInFlight blocks until at most max datagram updates are between
// their sender and the engine's applied watermark.
func (s *system) waitInFlight(max int64) {
	eng := s.servers[0].Engine()
	for s.sentUDP.Load()-int64(eng.Applied()) > max {
		time.Sleep(50 * time.Microsecond)
	}
}

// awaitApplied subscribes to query and returns wait, which blocks until
// the server has applied an update at or past seq, or d has passed.
func (s *system) awaitApplied(query string) (wait func(seq int, d time.Duration) bool, cancel func(), err error) {
	// 16 notifications of slack: the waiter asks for the newest seq only.
	ch, cancel, err := s.servers[0].Subscribe(query, 16)
	if err != nil {
		return nil, nil, err
	}
	wait = func(seq int, d time.Duration) bool {
		timeout := time.After(d)
		for {
			select {
			case n, ok := <-ch:
				if !ok {
					return false
				}
				if n.Seq >= seq {
					return true
				}
			case <-timeout:
				return false
			}
		}
	}
	return wait, cancel, nil
}

// engineReport is what the datagram path says about itself after a run.
type engineReport struct {
	lost       int64  // shed, rejected, undecodable or for an unknown source: 0 on a healthy run
	lostDetail string // the counters behind lost, for the failure message
	// stale counts updates that arrived after a later one of their stream
	// and were dropped as the transport is designed to: by the engine's seq
	// dedup, or, when the update overtaken was the stream's bootstrap,
	// as arriving before it. The sender's window bounds how many updates
	// are in flight, not for how long, so when the host or the scheduler
	// holds a reader lane with a datagram in hand for longer than the other
	// lane needs for a round over all streams, that datagram's updates are
	// overtaken. The final answers are checked all the same.
	stale       int64
	ringHWM     int64
	shed        int64
	perDatagram float64 // update frames per datagram received
	rxBatch     float64 // datagrams per receive syscall, mean over lanes
}

func (s *system) engineReport() engineReport {
	var r engineReport
	if s.udp == nil {
		return r
	}
	e := s.servers[0].Streamz().Engine
	r.lost = e.DatagramsBad + e.UnknownSource + e.Rejected + e.WALCommitErrors
	r.lostDetail = fmt.Sprintf("bad datagrams %d, unknown source %d, rejected %d, WAL errors %d",
		e.DatagramsBad, e.UnknownSource, e.Rejected, e.WALCommitErrors)
	r.stale = e.PreBootstrap
	for _, sh := range e.PerShard {
		r.lostDetail += fmt.Sprintf(", shard %d shed %d", sh.Shard, sh.Dropped)
		r.lost += sh.Dropped
		r.shed += sh.Dropped
		r.stale += sh.Dedup
		if sh.RingDepthHWM > r.ringHWM {
			r.ringHWM = sh.RingDepthHWM
		}
	}
	if e.DatagramsRx > 0 {
		r.perDatagram = float64(e.FramesRx) / float64(e.DatagramsRx)
	}
	for _, ln := range e.Lanes {
		r.rxBatch += ln.AvgBatch / float64(len(e.Lanes))
	}
	return r
}

// checkpoint writes a checkpoint on every durable server.
func (s *system) checkpoint() error {
	for _, srv := range s.servers {
		if err := srv.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// owner and routerAggregate are the router's in-process calls.
func (s *system) owner(id string) int { return s.router.Ring().Owner(id) }
func (s *system) routerAggregate(query string) error {
	_, err := s.router.AnswerAggregate(query, 0)
	return err
}

// updateFrameBytes is the size on the wire of one single-value update
// frame of sourceID. The encoding is fixed-width, so it does not depend
// on the values.
func updateFrameBytes(sourceID string) int {
	b, err := wire.AppendUpdateFrame(nil, &core.Update{SourceID: sourceID, Values: []float64{0}})
	if err != nil {
		panic(err) // a one-value update always fits a frame
	}
	return len(b)
}

// pipeline holds the layers one reading crosses, side by side and in
// process, so that the traced pass can call each public function on its
// own. twin and node repeat work that Process and HandleUpdate also do
// inside: they time the bare filter step and the bare per-stream apply.
type pipeline struct {
	id      string
	twin    *kalman.Filter
	z       *mat.Matrix
	src     *core.SourceNode
	node    *core.ServerNode
	srv     *dsms.Server
	durable *dsms.Server // nil unless walDir was given
	r       stream.Reading
	up      core.Update // what the source last decided to send
	frame   []byte
	dec     core.Update
}

const pipelineQuery = "q/replay"

func newPipeline(model string, delta float64, walDir string) (*pipeline, error) {
	catalog := dsms.DefaultCatalog(1)
	m, err := catalog.Resolve(model)
	if err != nil {
		return nil, err
	}
	p := &pipeline{id: "replay", z: mat.New(1, 1), r: stream.Reading{Values: make([]float64, 1)}}
	cfg := core.Config{SourceID: p.id, Model: m, Delta: delta}
	if p.src, err = core.NewSourceNode(cfg); err != nil {
		return nil, err
	}
	if p.node, err = core.NewServerNode(cfg); err != nil {
		return nil, err
	}
	if p.twin, err = m.NewFilter([]float64{0}); err != nil {
		return nil, err
	}
	p.srv = dsms.NewServer(catalog)
	servers := []*dsms.Server{p.srv}
	if walDir != "" {
		p.durable, err = dsms.Open(catalog, walDir, dsms.DurabilityOptions{Sync: wal.SyncInterval, CheckpointEvery: 10000})
		if err != nil {
			return nil, err
		}
		servers = append(servers, p.durable)
	}
	for _, srv := range servers {
		if err := srv.Register(stream.Query{ID: pipelineQuery, SourceID: p.id, Model: model, Delta: delta}); err != nil {
			return nil, err
		}
		if _, err := srv.InstallFor(p.id); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *pipeline) Close() error {
	if p.durable != nil {
		return p.durable.Close()
	}
	return nil
}

// Step is kalman.Filter.Step on a filter of the workload's model.
func (p *pipeline) Step(v float64) error {
	p.z.Set(0, 0, v)
	return p.twin.Step(p.z)
}

// Process is core.SourceNode.Process; a sent update is kept for the
// stages after it.
func (p *pipeline) Process(seq int, v float64) (sent bool, err error) {
	setReading(&p.r, seq, v)
	u, _, err := p.src.Process(p.r)
	if u != nil {
		p.up = *u
	}
	return u != nil, err
}

// Raw stands in for Process on a workload whose sources run no filter:
// every reading is an update.
func (p *pipeline) Raw(seq int, v float64) {
	p.r.Values[0] = v
	p.up = core.Update{SourceID: p.id, Seq: seq, Time: float64(seq), Values: p.r.Values, Bootstrap: seq == 0}
}

// Encode is wire.AppendUpdateFrame.
func (p *pipeline) Encode() (err error) {
	p.frame, err = wire.AppendUpdateFrame(p.frame[:0], &p.up)
	return err
}

// Decode is wire.NextFrame followed by wire.DecodeUpdateInto.
func (p *pipeline) Decode() error {
	_, payload, _, err := wire.NextFrame(p.frame, 0)
	if err != nil {
		return err
	}
	return wire.DecodeUpdateInto(payload, &p.dec, p.intern)
}

func (p *pipeline) intern(b []byte) string {
	if string(b) == p.id {
		return p.id
	}
	return string(b)
}

// Apply is core.ServerNode.ApplyUpdate on a bare node.
func (p *pipeline) Apply() error { return p.node.ApplyUpdate(p.dec) }

// Handle is dsms.Server.HandleUpdate on a non-durable server.
func (p *pipeline) Handle() error { return p.srv.HandleUpdate(p.dec) }

// HandleDurable is the same call on a durable server: the apply plus a
// WAL append.
func (p *pipeline) HandleDurable() error { return p.durable.HandleUpdate(p.dec) }

// Answer is dsms.Server.Answer.
func (p *pipeline) Answer(seq int) error {
	_, err := p.srv.Answer(pipelineQuery, seq)
	return err
}

// walKit is a bare write-ahead log with the workload's fsync policy.
type walKit struct {
	log     *wal.Log
	ins     *wal.Instruments
	payload []byte
	batch   [][]byte
}

const (
	walTagUpdate = 0x11 // the record tag the server logs updates under
	walBatch     = 32   // records per AppendBatch
)

func newWALKit(dir string) (*walKit, error) {
	ins := wal.NewInstruments(telemetry.NewRegistry())
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncInterval, Ins: ins})
	if err != nil {
		return nil, err
	}
	payload, err := wire.AppendUpdate(nil, &core.Update{SourceID: "load-0", Seq: 1, Values: []float64{1}})
	if err != nil {
		return nil, err
	}
	k := &walKit{log: log, ins: ins, payload: payload}
	for i := 0; i < walBatch; i++ {
		k.batch = append(k.batch, payload)
	}
	return k, nil
}

func (k *walKit) Append() error      { return k.log.Append(walTagUpdate, k.payload) }
func (k *walKit) AppendBatch() error { return k.log.AppendBatch(walTagUpdate, k.batch) }
func (k *walKit) Sync() error        { return k.log.Sync() }
func (k *walKit) Close() error       { return k.log.Close() }
func (k *walKit) BytesPerRecord() float64 {
	return float64(k.ins.BytesAppended.Value()) / float64(k.ins.RecordsAppended.Value())
}

// engineKit is a bare one-shard ingest engine whose sink is the
// benchmark: it tells when a batch arrives and how large it is.
type engineKit struct {
	e       *engine.Engine
	p       *engine.Producer
	u       core.Update
	arrived chan struct{}
	batches atomic.Int64
	updates atomic.Int64
}

func newEngineKit() *engineKit {
	// One token of buffer: Ping consumes the token of its own batch
	// before the next offer, and Offer's bursts drop theirs.
	k := &engineKit{arrived: make(chan struct{}, 1), u: core.Update{SourceID: "load-0", Values: []float64{1}}}
	k.e = engine.New(kitSink{k}, engine.Options{Shards: 1, RingSize: 4 * udpWindow})
	k.p = k.e.Producer()
	return k
}

type kitSink struct{ k *engineKit }

func (s kitSink) ApplyBatch(_ int, batch []core.Update) {
	s.k.batches.Add(1)
	s.k.updates.Add(int64(len(batch)))
	select {
	case s.k.arrived <- struct{}{}:
	default:
	}
}

// Offer is engine.Producer.Offer.
func (k *engineKit) Offer() error {
	k.u.Seq++
	if !k.p.Offer(0, &k.u) {
		return fmt.Errorf("engine closed")
	}
	return nil
}

// Ping offers one update and returns when the sink has it. Call it on a
// quiesced engine.
func (k *engineKit) Ping() error {
	select {
	case <-k.arrived:
	default:
	}
	if err := k.Offer(); err != nil {
		return err
	}
	<-k.arrived
	return nil
}

func (k *engineKit) Quiesce() { k.e.Quiesce() }

// BatchSize is the mean number of updates per ApplyBatch so far.
func (k *engineKit) BatchSize() float64 {
	return float64(k.updates.Load()) / float64(k.batches.Load())
}
func (k *engineKit) Close() { k.e.Close() }
