package dsms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"streamkf/internal/core"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
	"streamkf/internal/trace"
)

// The TCP transport speaks the length-prefixed binary framing protocol
// of internal/dsms/wire. A source connection exchanges preambles, then
// hello → install, then ships update frames *pipelined*: the agent does
// not wait for acknowledgements, the server acks cumulatively by
// sequence number, and a configurable window of unacked updates
// provides backpressure. Server-side failures arrive asynchronously as
// error frames and fail the agent's next Offer. Query clients remain
// synchronous request/response.

// DefaultWindow is how many unacknowledged updates a RemoteAgent keeps in
// flight before Offer blocks: the largest in a sweep whose routed peak RSS
// stayed within 3 % (DESIGN §8).
const DefaultWindow = 4096

// errAgentClosed reports an operation on a RemoteAgent after Close.
var errAgentClosed = errors.New("dsms: agent closed")

// DialOptions tunes a RemoteAgent connection.
type DialOptions struct {
	// Window is the maximum number of unacked updates in flight.
	// 0 means DefaultWindow; 1 reproduces the synchronous
	// ack-per-update protocol.
	Window int
	// Trace attaches a flight recorder to the agent's source node and —
	// when the server advertises wire.FeatEvidence — ships each send
	// decision's evidence as the trailer of its update frame so the
	// server can audit the suppression protocol end to end. Against a
	// server without the feature bit the recorder still runs locally
	// and nothing extra crosses the wire.
	Trace bool
	// TraceRing sizes the local flight recorder ring; 0 means
	// trace.DefaultRingSize. Only meaningful with Trace.
	TraceRing int
	// TraceSample records detailed per-reading events for one reading
	// in every TraceSample; <= 1 records all. Decisions that transmit
	// are always recorded. Only meaningful with Trace.
	TraceSample int
}

// ServerOptions tunes a TCPServer.
type ServerOptions struct {
	// MaxFrame caps accepted frame sizes; 0 means wire.DefaultMaxFrame.
	MaxFrame int
}

// TCPServer exposes a Server over the binary wire protocol.
type TCPServer struct {
	server   *Server
	ln       net.Listener
	maxFrame int
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	serveWG  sync.WaitGroup
}

// NewTCPServer wraps server with a listener on addr (e.g.
// "127.0.0.1:0"). Call Serve to start accepting and Close to stop.
func NewTCPServer(server *Server, addr string) (*TCPServer, error) {
	return NewTCPServerOptions(server, addr, ServerOptions{})
}

// NewTCPServerOptions is NewTCPServer with explicit limits.
func NewTCPServerOptions(server *Server, addr string, opts ServerOptions) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsms: listen: %w", err)
	}
	return &TCPServer{server: server, ln: ln, maxFrame: opts.MaxFrame, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound listener address.
func (t *TCPServer) Addr() string { return t.ln.Addr().String() }

// Serve accepts and handles connections until Close is called. It
// returns nil on graceful shutdown.
func (t *TCPServer) Serve() error {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			if !closed {
				// A listener failure outside Close must not leak the
				// in-flight handler goroutines past Serve's return:
				// close their connections so the handlers unwind, then
				// wait them out exactly as the graceful path does.
				for c := range t.conns {
					c.Close()
				}
			}
			t.mu.Unlock()
			t.serveWG.Wait()
			if closed {
				return nil
			}
			return fmt.Errorf("dsms: accept: %w", err)
		}
		t.mu.Lock()
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.serveWG.Add(1)
		go func() {
			defer t.serveWG.Done()
			t.handle(conn)
		}()
	}
}

// Close stops the listener and closes every open connection.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	t.closed = true
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	return t.ln.Close()
}

func (t *TCPServer) handle(conn net.Conn) {
	tel := t.server.tel
	tel.connsTotal.Inc()
	tel.connsActive.Add(1)
	c := tcpConn{s: t.server, r: wire.NewReader(conn, wire.MaxReadBuffer, t.maxFrame), w: wire.NewWriter(conn, 0, t.maxFrame)}
	c.w.OnFrame = tel.tx
	defer func() {
		c.countRx() // a run the connection ended inside
		conn.Close()
		tel.connsActive.Add(-1)
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()

	// Preamble exchange: validate the client's, answer with ours. A peer
	// not speaking the protocol gets a best-effort error frame, then the close.
	ver, _, err := c.r.ReadPreamble()
	if err != nil {
		c.fatal(err)
		return
	}
	// Ask for evidence trailers only while tracing is on: a non-tracing
	// server would step over them unread. Cluster framing is always
	// accepted: a router requires the bit before it forwards.
	feats := wire.FeatCluster
	if c.traced = t.server.TraceEnabled(); c.traced {
		feats |= wire.FeatEvidence
	}
	if c.w.WritePreamble(wire.Version, feats) != nil {
		return
	}
	if err := wire.CheckVersion(ver); err != nil {
		c.fatal(err)
		return
	}
	if c.w.Flush() != nil {
		return
	}
	for {
		tag, p, err := c.r.Next()
		if err != nil {
			// Tell a well-behaved client why an oversized or malformed
			// frame killed the connection; a vanished peer gets nothing.
			var fse *wire.FrameSizeError
			if errors.As(err, &fse) || errors.Is(err, wire.ErrMalformed) {
				c.fatal(err)
			} else {
				tel.countWireError(err)
			}
			return
		}
		if !c.frame(tag, p) {
			return
		}
	}
}

// tcpConn is one connection's serving state. Its unit of work is a run:
// the update and forward frames one socket read delivered, decoded into
// reused slots (steady-state ingest allocates nothing) and folded in
// together, engine.BatchSize at most at a time. Every other frame ends the
// run. The acks a read earned go out in one write once it is all folded in.
type tcpConn struct {
	s *Server
	r *wire.Reader
	w *wire.Writer

	run    []core.Update // the buffered run
	frames []rxFrame     // parallel to run
	acks   []rxFrame     // earned since the last write-out
	traced bool          // evidence trailers were asked for: keep them

	// rxFrames and rxBytes count the update [0] and forward [1] frames
	// read since they were last added to the per-tag totals.
	rxFrames, rxBytes [2]int64
}

// countRx adds the update and forward frames read since the last count to
// the per-tag totals: once a run, as the UDP reader does once a datagram.
func (c *tcpConn) countRx() {
	for i, tag := range [2]wire.Tag{wire.TagUpdate, wire.TagForward} {
		if c.rxFrames[i] > 0 {
			c.s.tel.rxFrames[tag].Add(c.rxFrames[i])
			c.s.tel.rxBytes[tag].Add(c.rxBytes[i])
		}
	}
	c.rxFrames, c.rxBytes = [2]int64{}, [2]int64{}
}

// flushAck writes the cumulative acks earned so far — a source's own
// updates by seq, a router's forwards by route and seq — and flushes,
// unless the caller has a frame to put behind them first. A failed write
// is sticky in the writer: the next write or flush reports it.
func (c *tcpConn) flushAck(flush bool) bool {
	for _, a := range c.acks {
		if a.route < 0 {
			c.w.Ack(a.seq)
		} else {
			c.w.ForwardAck(uint32(a.route), a.seq)
		}
	}
	c.acks = c.acks[:0]
	return !flush || c.w.Flush() == nil
}

// fatal answers a frame the connection cannot survive (undecodable
// payload, wrong version) with a best-effort error frame; the false it
// returns makes the caller hang up.
func (c *tcpConn) fatal(err error) bool {
	c.s.tel.countWireError(err)
	c.w.Error(fmt.Sprintf("dsms: %v", err))
	c.w.Flush()
	return false
}

// reply completes a request whose reply frame is already buffered
// (werr is that write's result): flush it behind any pending acks.
func (c *tcpConn) reply(werr error) bool { return werr == nil && c.flushAck(true) }

// refuse reports a request the server rejected, as an error frame. Keep
// reading; the client decides when to hang up.
func (c *tcpConn) refuse(err error) bool { return c.reply(c.w.Error(err.Error())) }

// frame serves one inbound frame, returning false when the connection
// must close.
func (c *tcpConn) frame(tag wire.Tag, p []byte) bool {
	if tag == wire.TagUpdate || tag == wire.TagForward {
		fwd := b2u8(tag == wire.TagForward)
		c.rxFrames[fwd]++
		c.rxBytes[fwd] += int64(len(p) + 5)
		if tag == wire.TagUpdate && !c.add(-1, c.r.Frame(p)) || tag == wire.TagForward && !c.forward(p) {
			return false
		}
		// Once this frame ends the read (the next is not whole in the read
		// buffer) the run is applied and the read's acks written out.
		_, more := c.r.Ready()
		return more || c.applyBuffered() && c.flushAck(true)
	}
	c.s.tel.rx(tag, len(p)+5)
	// Anything else ends the run, and is answered behind its acks.
	if len(c.run) > 0 && !c.applyBuffered() {
		return false
	}
	switch tag {
	case wire.TagHello:
		id, err := wire.DecodeHello(p)
		if err != nil {
			return c.fatal(err)
		}
		inst, err := c.s.installReply(id)
		if err != nil {
			return c.refuse(err)
		}
		return c.reply(c.w.Install(inst))
	case wire.TagQuery:
		qid, seq, err := c.r.DecodeQuery(p)
		if err != nil {
			return c.fatal(err)
		}
		vals, err := c.s.answer(qid, kindAny, int(seq), nil)
		if err != nil {
			return c.refuse(err)
		}
		return c.reply(c.w.Answer(qid, vals))
	case wire.TagClusterReg:
		kind, q, agg, err := wire.DecodeClusterReg(p)
		if err != nil {
			return c.fatal(err)
		}
		// Idempotent-adopt: a router re-registering after a shard restart
		// finds the queries the WAL recovered and confirms them — only as
		// the kind it asks for; the id namespace is shared.
		id, want := q.ID, kindPoint
		if kind == wire.RegAggregate {
			id, want = agg.ID, kindAggregate
		}
		have := c.s.query(id)
		switch {
		case have != nil && have.kind() != want:
			err = fmt.Errorf("dsms: duplicate query id %s", id)
		case have != nil:
		case want == kindAggregate:
			err = c.s.RegisterAggregate(AggregateQuery{
				ID: agg.ID, Func: AggFunc(agg.Func), Model: agg.Model,
				Delta: agg.Delta, F: agg.F, Partial: agg.Partial, SourceIDs: agg.SourceIDs,
			})
		default:
			err = c.s.Register(stream.Query{ID: q.ID, SourceID: q.SourceID, Model: q.Model, Delta: q.Delta, F: q.F})
		}
		if err != nil {
			return c.refuse(err)
		}
		return c.reply(c.w.Registered(id))
	case wire.TagSnapshot:
		srcID, epoch, err := wire.DecodeSnapshot(p)
		if err != nil {
			return c.fatal(err)
		}
		payload, resumeSeq, err := c.s.SnapshotSource(srcID, epoch)
		if err != nil {
			return c.refuse(err)
		}
		return c.reply(c.w.WriteStateAck(wire.StateAck{SourceID: srcID, ResumeSeq: resumeSeq, Epoch: epoch, Payload: payload}))
	case wire.TagRestore:
		epoch, payload, err := wire.DecodeRestore(p)
		if err != nil {
			return c.fatal(err)
		}
		srcID, resumeSeq, err := c.s.RestoreSource(payload, epoch)
		if err != nil {
			return c.refuse(err)
		}
		return c.reply(c.w.WriteStateAck(wire.StateAck{SourceID: srcID, ResumeSeq: resumeSeq, Epoch: epoch}))
	default:
		c.s.tel.errs["unknown_tag"].Inc()
		return c.reply(c.w.Error(fmt.Sprintf("dsms: unknown message tag 0x%02x", byte(tag))))
	}
}

// forward adds the update frames of one TagForward frame to the buffered
// run. Its envelope names the route the acks must carry (a seq alone is
// ambiguous on a shared upstream) and the topology epoch routed under.
func (c *tcpConn) forward(p []byte) bool {
	idx, epoch, frames, err := wire.DecodeForward(p)
	if err != nil {
		return c.fatal(err)
	}
	c.s.ObserveEpoch(epoch)
	for len(frames) > 0 {
		f, rest, err := wire.NextForwarded(frames)
		if err != nil {
			return c.fatal(err)
		}
		if frames = rest; !c.add(int64(idx), f) {
			return false
		}
	}
	return true
}

// add decodes update frame f, received on route (-1: none), onto the run,
// applied once it holds engine.BatchSize updates. A traced update's
// evidence stays in its payload, valid while the run is.
func (c *tcpConn) add(route int64, f []byte) bool {
	k, p := len(c.run), f[5:]
	c.run = slices.Grow(c.run, 1)[:k+1] // a used slot keeps its Values capacity
	if err := c.r.DecodeUpdate(p, &c.run[k]); err != nil {
		return c.fatal(err)
	}
	c.frames = append(c.frames, rxFrame{route: route, seq: int64(c.run[k].Seq), frame: f})
	if c.traced {
		c.frames[k].ev = wire.UpdateEvidence(p)
	}
	return len(c.run) < engine.BatchSize || c.applyBuffered()
}

// applyBuffered folds the buffered run into its streams, one applyRun per
// sub-run of one stream, and notes the acks earned (a route's consecutive
// ones fold into its newest). A refused update gets its error frame (the
// client fails its next Offer) behind the acks of what was applied before
// it, and the updates after it are applied as if it had not been there.
// The caller flushes the acks once the read is applied.
func (c *tcpConn) applyBuffered() bool {
	for i := 0; i < len(c.run); {
		n, err := c.s.applyRun(c.run[i:], c.frames[i:], nil)
		if errors.Is(err, errNotLogged) {
			// An ack would promise durability the log cannot keep: hang up.
			c.w.Error(err.Error())
			c.w.Flush()
			return false
		}
		for _, f := range c.frames[i : i+n] {
			if last := len(c.acks) - 1; last >= 0 && c.acks[last].route == f.route {
				c.acks[last] = f
			} else {
				c.acks = append(c.acks, f)
			}
		}
		i += n
		if err != nil {
			if !c.flushAck(false) || c.w.Error(err.Error()) != nil {
				return false
			}
			i++
		}
	}
	c.run, c.frames = c.run[:0], c.frames[:0]
	c.countRx()
	c.s.maybeCheckpoint()
	return true
}

// RemoteAgent is a source agent connected to a TCPServer. It performs
// the install handshake on dial and ships updates pipelined: Offer
// returns as soon as the update frame is buffered, a background reader
// consumes the server's cumulative acks, and at most Window updates stay
// unacknowledged before Offer blocks. Server errors are sticky and fail
// every subsequent Offer, Drain, and Close.
type RemoteAgent struct {
	*Agent // Offer and Run are wrapped below; the rest is the agent's own
	window int

	// Redial state for Reconnect: how this agent was built.
	addr string
	opts DialOptions

	mu   sync.Mutex
	cond *sync.Cond
	conn net.Conn
	// ring holds every unacknowledged update, oldest first, as its frame.
	// The first sent of them count against the window, and all but the
	// last unflushed bytes of those are written out; the rest (broken
	// connection only) wait for Reconnect to resend them.
	ring      frameRing
	sent      int
	unflushed int
	iov       [2][]byte   // a write-out's spans
	bufs      net.Buffers // iov as written: one syscall for both spans
	lastAcked int64       // highest cumulatively acked seq (-1 before any)
	err       error       // sticky transport/server error
	closing   bool        // suppresses the close-induced read error
	failed    atomic.Bool // err != nil, for Offer's lock-free check per reading

	// wireTrace: the agent asked for tracing and the connected server
	// advertised wire.FeatEvidence. Re-evaluated on every (re)connect.
	wireTrace bool

	readerDone chan struct{}
}

// frameRing is the FIFO of a RemoteAgent's unacknowledged updates, each
// kept once, as the frame it is written out as, back to back in a byte
// ring whose length is a power of two, doubled when full. A frame may wrap
// past the end: a write-out is one span or two, and a wrapped frame is
// made whole in tmp to be read.
type frameRing struct {
	buf        []byte
	head, used int    // byte offset of the oldest frame; bytes kept
	n          int    // frames kept
	tmp        []byte // the frame being encoded, or a wrapped one made whole
}

// push encodes u's frame, with ev (nil for none) as its evidence trailer,
// behind the newest kept one, and returns its size.
func (r *frameRing) push(u *core.Update, ev *trace.Event) (int, error) {
	f, err := wire.AppendTracedUpdate(wire.BeginFrame(r.tmp[:0], wire.TagUpdate), u, ev)
	if err == nil {
		f, err = wire.EndFrame(f, 0)
	}
	if r.tmp = f; err != nil {
		return 0, err
	}
	for r.used+len(f) > len(r.buf) {
		var iov [2][]byte
		buf := make([]byte, max(256, 2*len(r.buf)))
		copy(buf[copy(buf, r.spans(0, &iov)[0]):], iov[1])
		r.buf, r.head = buf, 0
	}
	copy(r.buf, f[copy(r.buf[(r.head+r.used)&(len(r.buf)-1):], f):])
	r.used += len(f)
	r.n++
	return len(f), nil
}

// spans returns the kept bytes from off past the head on, in iov: one
// span, or two where they wrap.
func (r *frameRing) spans(off int, iov *[2][]byte) [][]byte {
	i := (r.head + off) & (len(r.buf) - 1)
	if j := i + r.used - off; j > len(r.buf) {
		iov[0], iov[1] = r.buf[i:], r.buf[:j-len(r.buf)]
		return iov[:2]
	}
	iov[0] = r.buf[i : i+r.used-off]
	return iov[:1]
}

// frame returns the kept frame that starts off bytes past the head.
func (r *frameRing) frame(off int) []byte {
	b := r.buf[(r.head+off)&(len(r.buf)-1):]
	if len(b) >= 4 && 4+int(binary.LittleEndian.Uint32(b)) <= len(b) {
		return b[:4+binary.LittleEndian.Uint32(b)]
	}
	return r.whole(off)
}

// whole is frame for one that wraps past the end: made whole in tmp.
func (r *frameRing) whole(off int) []byte {
	var iov [2][]byte
	s := r.spans(off, &iov) // s[0] holds less than the frame
	var hdr [4]byte
	copy(hdr[copy(hdr[:], s[0]):], s[1])
	n := 4 + int(binary.LittleEndian.Uint32(hdr[:]))
	r.tmp = append(append(r.tmp[:0], s[0]...), s[1][:n-len(s[0])]...)
	return r.tmp
}

// popThrough drops the oldest frames, at most limit, whose seq is at most
// seq, and returns how many it dropped.
func (r *frameRing) popThrough(seq int64, limit int) int {
	k := 0
	for ; k < limit; k++ {
		f := r.frame(0) // id | uvarint seq | …, as this agent encoded it
		if s, _ := binary.Uvarint(f[7+int(binary.LittleEndian.Uint16(f[5:])):]); int64(s) > seq {
			break
		}
		r.head = (r.head + len(f)) & (len(r.buf) - 1)
		r.used -= len(f)
		r.n--
	}
	return k
}

// DialSource connects sourceID to the server at addr with default
// options, resolving the installed model from catalog — the agent and
// server must share catalog contents by name.
func DialSource(addr, sourceID string, catalog *Catalog) (*RemoteAgent, error) {
	return DialSourceOptions(addr, sourceID, catalog, DialOptions{})
}

// DialWire dials addr, sends this side's preamble advertising offer —
// and, for a source (hello != ""), its hello frame in the same write —
// and validates the server's, returning the connection, its framed
// writer/reader (write buffer wbuf, frame limit maxFrame; 0: the wire
// defaults) and the server's feature bits. On error the connection is
// already closed. Every client of the protocol — source, query client,
// router upstream — dials through it.
func DialWire(addr, hello string, offer byte, wbuf, maxFrame int) (net.Conn, *wire.Writer, *wire.Reader, byte, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("dsms: dial: %w", err)
	}
	w := wire.NewWriter(conn, wbuf, maxFrame)
	r := wire.NewReader(conn, 0, maxFrame)
	err = w.WritePreamble(wire.Version, offer)
	if err == nil && hello != "" {
		err = w.Hello(hello)
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, nil, nil, 0, fmt.Errorf("dsms: send: %w", err)
	}
	ver, feats, err := r.ReadPreamble()
	if err == nil {
		err = wire.CheckVersion(ver)
	}
	if err != nil {
		conn.Close()
		return nil, nil, nil, 0, fmt.Errorf("dsms: handshake: %w", err)
	}
	return conn, w, r, feats, nil
}

// dialHandshake runs DialWire plus the hello → install exchange,
// returning the decoded install reply. The agent writes its frames from
// its ring, so the writer, done with the hello, is dropped. It offers
// wire.FeatResume (RemoteAgent.resume).
func dialHandshake(addr, sourceID string) (net.Conn, *wire.Reader, wire.Install, byte, error) {
	conn, _, r, feats, err := DialWire(addr, sourceID, wire.FeatResume, 0, 0)
	if err != nil {
		return nil, nil, wire.Install{}, 0, err
	}
	var inst wire.Install
	tag, p, err := r.Next()
	switch {
	case err != nil:
		err = fmt.Errorf("dsms: handshake: %w", recvErr(err))
	case tag == wire.TagError:
		msg, _ := wire.DecodeError(p)
		err = fmt.Errorf("dsms: server error: %s", msg)
	case tag != wire.TagInstall:
		err = fmt.Errorf("dsms: unexpected handshake reply %v", tag)
	default:
		if inst, err = wire.DecodeInstall(p); err != nil {
			err = fmt.Errorf("dsms: handshake: %w", err)
		}
	}
	if err != nil {
		conn.Close()
		return nil, nil, wire.Install{}, 0, err
	}
	return conn, r, inst, feats, nil
}

// DialSourceOptions is DialSource with an explicit ack window.
func DialSourceOptions(addr, sourceID string, catalog *Catalog, opts DialOptions) (*RemoteAgent, error) {
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow
	}
	conn, r, inst, feats, err := dialHandshake(addr, sourceID)
	if err != nil {
		return nil, err
	}
	ra := &RemoteAgent{
		conn: conn, window: window, addr: addr, opts: opts, lastAcked: -1,
		wireTrace: opts.Trace && feats&wire.FeatEvidence != 0, readerDone: make(chan struct{}),
	}
	ra.cond = sync.NewCond(&ra.mu)
	if ra.Agent, err = dialedAgent(inst, sourceID, catalog, core.TransportFunc(ra.sendUpdate), opts); err != nil {
		conn.Close()
		return nil, err
	}
	go ra.readLoop(r)
	return ra, nil
}

// recvErr dresses a receive failure for the caller, keeping the
// clean-close/truncation distinction inspectable with errors.Is.
func recvErr(err error) error {
	if errors.Is(err, core.ErrPeerClosed) {
		return fmt.Errorf("dsms: server closed connection: %w", err)
	}
	return fmt.Errorf("dsms: receive: %w", err)
}

// readLoop consumes ack, install and error frames until the connection
// dies. It is also the flush half of the self-clocking write coalescing:
// when acks free window space, the frames buffered since the last write-out
// are flushed, so burst size adapts to the ack rate as TCP's own clock does.
func (r *RemoteAgent) readLoop(rd *wire.Reader) {
	defer close(r.readerDone)
	for {
		tag, p, err := rd.Next()
		if err != nil {
			r.fail(recvErr(err))
			return
		}
		switch tag {
		case wire.TagAck:
			seq, err := wire.DecodeAck(p)
			if err != nil {
				r.fail(fmt.Errorf("dsms: %w", err))
				return
			}
			r.mu.Lock()
			if seq > r.lastAcked {
				r.lastAcked = seq
			}
			// Out first: the ack may cover frames still waiting here.
			r.flushLocked()
			r.sent -= r.ring.popThrough(seq, r.sent)
			r.unflushed = min(r.unflushed, r.ring.used)
			r.cond.Broadcast()
			r.mu.Unlock()
		case wire.TagInstall:
			if err := r.resume(p); err != nil {
				r.fail(fmt.Errorf("dsms: resume: %w", err))
				return
			}
		case wire.TagError:
			msg, _ := wire.DecodeError(p)
			r.fail(fmt.Errorf("dsms: server error: %s", msg))
			return
		default:
			r.fail(fmt.Errorf("dsms: unexpected %v frame from server", tag))
			return
		}
	}
}

// fail records the first transport error and wakes all waiters. A read
// failure after Close is the expected teardown, not an error.
func (r *RemoteAgent) fail(err error) {
	r.mu.Lock()
	if !r.closing {
		r.failLocked(err)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// failLocked latches err unless an error is already sticky, and returns
// the sticky one. Caller holds r.mu.
func (r *RemoteAgent) failLocked(err error) error {
	if r.err == nil {
		r.err = err
		r.failed.Store(true)
	}
	return r.err
}

// sendUpdate implements core.Transport: keep the update, enforce the
// window, buffer the frame, and flush only when no ack is in flight to
// trigger the flush from readLoop (pipelined sends coalesce into bursts).
func (r *RemoteAgent) sendUpdate(u core.Update) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.err == nil && !r.closing && r.sent >= r.window {
		// Everything buffered must be on the wire before blocking, or
		// the acks we are waiting for can never be generated.
		if r.flushLocked(); r.err != nil {
			break
		}
		r.cond.Wait()
	}
	if r.closing {
		return errAgentClosed
	}
	// LastDecision is the verdict on the reading behind this very send:
	// its evidence rides the update as a trailer when the server asked
	// for it. Its At — stamped by the node's recorder, which a wireTrace
	// agent always has — is source time, ordering every recorder's trail.
	var ev *trace.Event
	var tid int64
	if r.tracer != nil {
		d := r.LastDecision()
		if tid = d.TraceID; r.wireTrace {
			ev = &d
		}
	}
	// Kept before anything below can fail: the mirror filter has already
	// folded this update in (Process mutates before transmitting), so
	// dropping it would desynchronize KFs from KFm. On a broken connection
	// it waits for Reconnect; the caller sees the sticky error.
	size, err := r.ring.push(&u, ev)
	if err != nil {
		return r.failLocked(fmt.Errorf("dsms: send: %w", err))
	}
	if r.err != nil {
		return r.err
	}
	r.unflushed += size
	if r.tracer != nil {
		r.tracer.Record(&trace.Event{TraceID: tid, Seq: int64(u.Seq), Kind: trace.KindWireTx, Aux: int64(u.WireBytes())})
	}
	r.sent++
	if r.sent == 1 {
		// No ack is due to trigger a flush from the read side: write out
		// now. With acks in flight readLoop flushes on their arrival,
		// coalescing this frame with its successors.
		r.flushLocked()
	}
	return r.err
}

// flushLocked writes the frames kept since the last write-out in one
// write, latching a failure as the sticky error. Caller holds r.mu.
func (r *RemoteAgent) flushLocked() {
	if r.err == nil && r.unflushed > 0 {
		r.bufs = r.ring.spans(r.ring.used-r.unflushed, &r.iov)
		n, err := r.bufs.WriteTo(r.conn)
		if r.unflushed -= int(n); err != nil {
			r.failLocked(fmt.Errorf("dsms: send: %w", err))
		}
	}
}

// Err returns the sticky transport error, if any — the asynchronous
// delivery point for server-side failures of pipelined updates.
func (r *RemoteAgent) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Offer processes one reading through the DKF source node, transmitting
// if required. It returns whether an update was shipped. An error
// reported asynchronously for an earlier pipelined update fails the
// next Offer.
func (r *RemoteAgent) Offer(reading stream.Reading) (bool, error) {
	if r.failed.Load() {
		// A concurrent Reconnect may have cleared it since: then go on.
		if err := r.Err(); err != nil {
			return false, err
		}
	}
	return r.Agent.Offer(reading)
}

// Run drives an entire source stream, then drains the pipeline so the
// server has folded every update before Run returns.
func (r *RemoteAgent) Run(src stream.Source) error {
	if err := r.Agent.Run(src); err != nil {
		return err
	}
	return r.Drain()
}

// Drain flushes buffered frames and blocks until the server has
// acknowledged every in-flight update, returning the sticky error if
// the pipeline broke.
func (r *RemoteAgent) Drain() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	for r.err == nil && !r.closing && r.sent > 0 {
		r.cond.Wait()
	}
	if r.err == nil && r.closing && r.sent > 0 {
		return errAgentClosed
	}
	return r.err
}

// TraceNegotiated reports whether the server advertised the evidence
// feature, i.e. whether this agent's updates carry their decision
// evidence on the wire.
func (r *RemoteAgent) TraceNegotiated() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wireTrace
}

// Reconnect re-establishes the server connection after a transport
// failure and resends every update the (possibly crash-recovered) server
// may not have durably applied. The install reply's ResumeSeq — where the
// server's recovered filter stands — decides: retained updates at or
// below it are dropped, the rest retransmitted in order, exactly the
// suffix the server missed, so mirror synchrony survives. It fails if
// the recovered state predates an update already acknowledged (loss a
// resend cannot repair) or the reinstalled procedure no longer matches
// the one this agent mirrors; only success clears the sticky error.
func (r *RemoteAgent) Reconnect() error {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		return errAgentClosed
	}
	oldConn := r.conn
	r.mu.Unlock()

	// Tear down the old connection and wait out its reader so the old
	// readLoop cannot race the swap below.
	oldConn.Close()
	<-r.readerDone

	conn, rd, inst, feats, err := dialHandshake(r.addr, r.cfg.SourceID)
	if err != nil {
		return err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		conn.Close()
		return errAgentClosed
	}
	if err := r.checkInstall(inst); err != nil {
		conn.Close()
		return fmt.Errorf("dsms: reconnect: %w", err)
	}
	// Drop the retained prefix the recovered server already holds; keep
	// the rest untraced, for the replacement server may not take evidence
	// (and the resent updates carry no fresh decisions): each frame this
	// agent encoded is decoded and encoded again, without its trailer.
	var kept frameRing
	var u core.Update
	for off := 0; off < r.ring.used; {
		f := r.ring.frame(off)
		off += len(f)
		if wire.DecodeUpdatePayload(f[5:], &u) == nil && int64(u.Seq) > inst.ResumeSeq {
			kept.push(&u, nil)
		}
	}
	r.ring, r.conn, r.err = kept, conn, nil
	r.failed.Store(false)
	// Renegotiate evidence trailers with the replacement server.
	r.wireTrace = r.opts.Trace && feats&wire.FeatEvidence != 0
	r.readerDone = make(chan struct{})
	// Retransmit before starting the new reader, so resent frames
	// precede anything a concurrent Offer ships on the fresh connection.
	r.sent, r.unflushed = r.ring.n, r.ring.used
	r.flushLocked()
	go r.readLoop(rd)
	r.cond.Broadcast()
	return r.err
}

// checkInstall refuses an install of another procedure, or one behind an
// acknowledged update (loss a resend cannot repair). Caller holds r.mu.
func (r *RemoteAgent) checkInstall(inst wire.Install) error {
	if inst.Model != r.cfg.Model.Name || inst.Delta != r.cfg.Delta || inst.F != r.cfg.F {
		return fmt.Errorf("server procedure changed (model %s delta=%v F=%v; agent mirrors model %s delta=%v F=%v)",
			inst.Model, inst.Delta, inst.F, r.cfg.Model.Name, r.cfg.Delta, r.cfg.F)
	}
	if inst.ResumeSeq < r.lastAcked {
		return fmt.Errorf("server recovered to seq %d, behind acknowledged seq %d — durable state lost", inst.ResumeSeq, r.lastAcked)
	}
	return nil
}

// resume serves a mid-stream install, payload p: a router that lost the
// shard behind it, which holds the stream through the install's
// ResumeSeq. The kept frames past it are resent verbatim, behind a hello
// that marks for the router where the resend begins.
func (r *RemoteAgent) resume(p []byte) error {
	inst, err := wire.DecodeInstall(p)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		err = r.checkInstall(inst)
	}
	if err != nil || r.err != nil || r.closing {
		return err
	}
	r.ring.popThrough(inst.ResumeSeq, r.ring.n)
	r.sent, r.unflushed = r.ring.n, r.ring.used
	r.cond.Broadcast()
	marker, _ := wire.AppendHelloFrame(nil, r.cfg.SourceID) // framed once already, at the dial
	if _, err := r.conn.Write(marker); err != nil {
		return r.failLocked(fmt.Errorf("dsms: send: %w", err))
	}
	r.flushLocked()
	return r.err
}

// Close tears down the connection after a best-effort flush and waits
// for the reader to exit. Use Drain first when every update must be
// confirmed delivered.
func (r *RemoteAgent) Close() error {
	r.mu.Lock()
	r.closing = true
	r.flushLocked()
	r.cond.Broadcast()
	r.mu.Unlock()
	err := r.conn.Close()
	<-r.readerDone
	return err
}

// QueryClient asks a TCPServer for current query answers over the
// binary protocol, one synchronous request/response at a time.
type QueryClient struct {
	conn net.Conn
	mu   sync.Mutex
	w    *wire.Writer
	r    *wire.Reader
}

// DialQuery connects a query client to the server at addr and validates
// the protocol preamble.
func DialQuery(addr string) (*QueryClient, error) {
	conn, w, r, _, err := DialWire(addr, "", 0, 0, 0)
	if err != nil {
		return nil, err
	}
	return &QueryClient{conn: conn, w: w, r: r}, nil
}

// Ask evaluates queryID at reading index seq.
func (q *QueryClient) Ask(queryID string, seq int) ([]float64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.w.Query(queryID, int64(seq)); err != nil {
		return nil, fmt.Errorf("dsms: send: %w", err)
	}
	if err := q.w.Flush(); err != nil {
		return nil, fmt.Errorf("dsms: send: %w", err)
	}
	tag, p, err := q.r.Next()
	if err != nil {
		return nil, recvErr(err)
	}
	switch tag {
	case wire.TagAnswer:
		_, vals, err := wire.DecodeAnswer(p)
		if err != nil {
			return nil, fmt.Errorf("dsms: %w", err)
		}
		return vals, nil
	case wire.TagError:
		msg, _ := wire.DecodeError(p)
		return nil, fmt.Errorf("dsms: server error: %s", msg)
	default:
		return nil, fmt.Errorf("dsms: expected answer, got %v", tag)
	}
}

// Close tears down the connection.
func (q *QueryClient) Close() error { return q.conn.Close() }
