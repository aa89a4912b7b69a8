// Connectionless UDP transport. DKF updates are small and carry their
// sequence numbers, so the datagram mode keeps no connection state at all:
// every datagram is the 6-byte v2 preamble plus one or more standard
// frames, parsed statelessly and handed to the shard ingest engine,
// whose seq-dedup makes duplicated datagrams harmless.
//
// Loss is not harmless. The source's mirror applied the correction a lost
// update carried and the server never saw it, so the two filters are no
// longer the same filter: answers can sit outside δ until later updates
// pull the server's back (TestSilentLossBreaksMirrorSynchrony in
// internal/core pins it), and nothing here detects or repairs that —
// ROADMAP item 1. Only the bootstrap is covered: it is sent more than once.
// On Linux a batcher's run of datagrams crosses the host as one segmented
// message (udp_linux.go), so a full receive buffer drops the run whole.
//
// What is and is not ordered: a socket has one reader and the reader one
// engine producer, so a stream's updates reach its shard worker in the
// order the socket queued them, and the worker applies them in that order.
// Only the network reorders a source's datagrams, and a reorder is a loss:
// the worker drops an update at or below the last applied seq, and one
// ahead of its stream's bootstrap. Cross-source order was never kept. A
// source must use one transport at a time — interleaving TCP and UDP for
// the same source id is a misconfiguration (two producers would race the
// dedup boundary).
package dsms

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"streamkf/internal/core"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/telemetry"
)

const (
	// maxDatagram caps accepted datagram sizes at the UDP maximum;
	// oversize datagrams are truncated by the kernel and then rejected
	// as malformed.
	maxDatagram = 64 << 10
	// maxPayload is the largest IPv4 UDP payload: no datagram a batcher
	// seals, and no run the segmented send hands the kernel, exceeds it.
	maxPayload = 65507
	// udpReadBuffer is the SO_RCVBUF asked of the kernel: the socket
	// buffer is the only queue between a burst and the engine's rings,
	// so it is sized generously.
	udpReadBuffer = 4 << 20
	// The hello → install handshake is the one loss-sensitive exchange,
	// so it is retried; everything after it is fire-and-forget.
	handshakeTimeout = 500 * time.Millisecond
	handshakeRetries = 5
	// sendBatch is how many sealed datagrams a UDPBatcher accumulates
	// before one transmit syscall carries them all.
	sendBatch = 16
)

// UDPServerOptions configures a UDPServer.
type UDPServerOptions struct {
	// Engine tunes the ingest engine when the server does not have one
	// attached yet; ignored otherwise.
	Engine EngineOptions
}

// UDPServer accepts DKF datagrams on one socket and feeds the server's
// shard ingest engine from one reader goroutine, so a stream's updates
// reach its shard's ring in the order the socket queued them. The reader
// drains up to rxBatch datagrams per syscall where the platform allows
// (recvmmsg on Linux) and owns every piece of mutable receive state —
// buffer arena, engine producer — so the steady-state receive path (read
// batch, parse, resolve in the server's id index, decode into a ring
// slot) allocates nothing and takes no lock. A host where one reader
// cannot keep up opens a second socket (a second UDPServer on the same
// Server), never a second reader on this one.
type UDPServer struct {
	server *Server
	eng    *engine.Engine
	conn   *net.UDPConn
	rx     *recvBatch
	prod   *engine.Producer
	batch  *telemetry.Histogram
	reply  []byte
	// parsed holds the updates processDatagram has resolved and not yet
	// enqueued; its size bounds how many id probes are in flight at once.
	parsed [32]struct {
		f  wire.UpdateFields
		sl *idSlot
	}

	closed atomic.Bool
}

// NewUDPServer binds addr ("host:port", port 0 picks a free one) and
// attaches to server's ingest engine, starting one with opts.Engine if
// none is attached yet. Call Serve to start receiving.
func NewUDPServer(server *Server, addr string, opts UDPServerOptions) (*UDPServer, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsms: udp listen: %w", err)
	}
	conn := pc.(*net.UDPConn)
	// Best effort: some kernels clamp SO_RCVBUF below the request.
	_ = conn.SetReadBuffer(udpReadBuffer)
	rx, err := newRecvBatch(conn, rxBatch, maxDatagram)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dsms: udp listen: %w", err)
	}
	eng := server.StartEngine(opts.Engine)
	return &UDPServer{server: server, eng: eng, conn: conn, rx: rx, prod: eng.Producer(),
		batch: server.tel.reg.Histogram("dkf_udp_rx_batch_size", "Datagrams drained per receive syscall.")}, nil
}

// Addr returns the bound UDP address.
func (t *UDPServer) Addr() net.Addr { return t.conn.LocalAddr() }

// Serve receives datagrams until Close: drain a batch, route each
// datagram, in the order the socket queued them. It returns nil after
// Close and the socket's error otherwise, closing the server. The engine
// is shared and stays running — shutting it down is its owner's call
// (Server.Engine().Close()).
func (t *UDPServer) Serve() error {
	for {
		n, err := t.rx.read()
		if err != nil {
			if t.closed.Load() {
				return nil
			}
			_ = t.Close()
			return fmt.Errorf("dsms: udp read: %w", err)
		}
		t.batch.Observe(int64(n))
		for i := 0; i < n; i++ {
			t.processDatagram(t.rx.msg(i), t.rx.addr(i))
		}
	}
}

// Close stops Serve. Updates already handed to the engine still drain.
func (t *UDPServer) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	return t.conn.Close()
}

// processDatagram parses one datagram and routes its frames, in two
// passes over the reader's batch of parsed updates. The first parses each
// update and resolves its id by one lock-free probe of the server's id
// index, touching no ring, so no slot claim or decode waits between two
// probes (group prefetching, Chen et al., ICDE 2004); the second, run
// whenever the batch fills and at the end, hands the same updates on in
// the same order, its slot claims back to back (enqueue). One Flush
// publishes the datagram's updates, whose frames are counted once. Hellos
// get an install reply when addr is valid; other tags are skipped for
// forward compatibility.
func (t *UDPServer) processDatagram(p []byte, addr netip.AddrPort) {
	ins, tel := t.server.engIns, t.server.tel
	ins.datagramsRx.Inc()
	var frames, updates, updateBytes int64
	n := 0
	_, rest, err := wire.CheckPreamble(p)
	for err == nil && len(rest) > 0 {
		var tag wire.Tag
		var payload []byte
		if tag, payload, rest, err = wire.NextFrame(rest, maxDatagram); err != nil {
			break
		}
		frames++
		if tag != wire.TagUpdate {
			tel.rx(tag, len(payload)+5)
			if tag == wire.TagHello {
				t.handleHello(payload, addr)
			}
			continue
		}
		updates++
		updateBytes += int64(len(payload) + 5)
		b := &t.parsed[n]
		if !b.f.Parse(payload) {
			err = wire.ErrMalformed
			break
		}
		b.sl = t.server.ids.find(unsafe.String(unsafe.SliceData(b.f.ID), len(b.f.ID)))
		if n++; n == len(t.parsed) {
			t.enqueue(n)
			n = 0
		}
	}
	t.enqueue(n)
	t.prod.Flush()
	ins.framesRx.Add(frames)
	tel.rxFrames[wire.TagUpdate].Add(updates)
	tel.rxBytes[wire.TagUpdate].Add(updateBytes)
	if err != nil {
		ins.datagramsBad.Inc()
		tel.countWireError(err)
	}
}

// enqueue decodes the batch's first n updates, in order, straight into
// their owning shards' ring slots (Next: a full ring sheds). An update for
// an id nobody registered is counted and dropped.
func (t *UDPServer) enqueue(n int) {
	for i := range t.parsed[:n] {
		b := &t.parsed[i]
		if b.sl == nil {
			t.server.engIns.unknown.Inc()
		} else if u := t.prod.Next(int(b.sl.shard)); u != nil {
			b.f.DecodeInto(u, b.sl.id())
			u.Handle = b.sl.handle.Load()
			t.prod.Commit(int(b.sl.shard))
		}
	}
}

// handleHello answers a handshake datagram with an install (or error)
// datagram. Handshakes are rare, so this path may allocate.
func (t *UDPServer) handleHello(payload []byte, addr netip.AddrPort) {
	if !addr.IsValid() {
		return
	}
	id, err := wire.DecodeHello(payload)
	if err != nil {
		t.server.engIns.datagramsBad.Inc()
		return
	}
	t.reply = wire.AppendPreamble(t.reply[:0], wire.Version, 0)
	inst, err := t.server.installReply(id)
	if err != nil {
		t.reply, err = wire.AppendErrorFrame(t.reply, err.Error())
	} else {
		t.reply, err = wire.AppendInstallFrame(t.reply, inst)
	}
	if err != nil {
		return
	}
	_, _ = t.conn.WriteToUDPAddrPort(t.reply, addr)
}

// UDPDialOptions configures DialSourceUDP.
type UDPDialOptions struct {
	// BootstrapCopies duplicates the bootstrap update datagram: the
	// bootstrap is the only update whose loss stalls the stream until a
	// retransmission, and the server's dedup drops the extras for free.
	// 0 selects 3.
	BootstrapCopies int
	// Trace attaches a local flight recorder to the agent's source
	// node. Decision evidence does not cross the wire on UDP.
	Trace       bool
	TraceRing   int
	TraceSample int
}

// UDPAgent is the dial-side datagram agent: the same mirror-filter
// Agent as the TCP path, sending each transmitted update as one
// self-describing datagram on a connected UDP socket. There are no
// acks and no resend queue, so a lost update is lost (package comment).
type UDPAgent struct {
	*Agent
	conn    *net.UDPConn
	inst    wire.Install
	copies  int
	scratch []byte
}

// DialSourceUDP runs the retried hello → install handshake against the
// server at addr and returns a datagram agent for sourceID, resolving
// the installed model from catalog.
//
// If the install reply carries ResumeSeq >= 0 the server already holds
// filter state for this source (recovered from durable storage); a
// fresh agent cannot resume a mirror it never ran, so it must restart
// the stream with a bootstrap — which the server's dedup drops while
// its seq is not newer than the recovered state. Restarting sources
// against a durable server should resume where they left off or use a
// fresh source id; see DESIGN.md §14.
func DialSourceUDP(addr, sourceID string, catalog *Catalog, opts UDPDialOptions) (*UDPAgent, error) {
	if opts.BootstrapCopies <= 0 {
		opts.BootstrapCopies = 3
	}
	c, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsms: udp dial: %w", err)
	}
	conn := c.(*net.UDPConn)
	hello := wire.AppendPreamble(nil, wire.Version, 0)
	if hello, err = wire.AppendHelloFrame(hello, sourceID); err != nil {
		conn.Close()
		return nil, err
	}
	var inst wire.Install
	got := false
	buf := make([]byte, maxDatagram)
attempts:
	for i := 0; i < handshakeRetries; i++ {
		if _, err := conn.Write(hello); err != nil {
			conn.Close()
			return nil, fmt.Errorf("dsms: udp hello: %w", err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					continue attempts
				}
				conn.Close()
				return nil, fmt.Errorf("dsms: udp handshake: %w", err)
			}
			_, rest, err := wire.CheckPreamble(buf[:n])
			if err != nil {
				continue // stray datagram; keep waiting
			}
			tag, payload, _, err := wire.NextFrame(rest, 0)
			if err != nil {
				continue
			}
			switch tag {
			case wire.TagError:
				msg, _ := wire.DecodeError(payload)
				conn.Close()
				return nil, fmt.Errorf("dsms: server error: %s", msg)
			case wire.TagInstall:
				if inst, err = wire.DecodeInstall(payload); err != nil {
					continue
				}
				got = true
				break attempts
			}
		}
	}
	if !got {
		conn.Close()
		return nil, fmt.Errorf("dsms: udp handshake: no install reply from %s after %d attempts", addr, handshakeRetries)
	}
	_ = conn.SetReadDeadline(time.Time{})
	ua := &UDPAgent{conn: conn, inst: inst, copies: opts.BootstrapCopies}
	ua.Agent, err = dialedAgent(inst, sourceID, catalog, core.TransportFunc(ua.send),
		DialOptions{Trace: opts.Trace, TraceRing: opts.TraceRing, TraceSample: opts.TraceSample})
	if err != nil {
		conn.Close()
		return nil, err
	}
	return ua, nil
}

// send implements core.Transport: one datagram per transmitted update,
// encoded into a reused scratch buffer (steady state allocates
// nothing). Bootstrap datagrams are duplicated BootstrapCopies times.
func (ua *UDPAgent) send(u core.Update) error {
	var err error
	ua.scratch = wire.AppendPreamble(ua.scratch[:0], wire.Version, 0)
	if ua.scratch, err = wire.AppendUpdateFrame(ua.scratch, &u); err != nil {
		return err
	}
	n := 1
	if u.Bootstrap {
		n = ua.copies
	}
	for i := 0; i < n; i++ {
		if _, err := ua.conn.Write(ua.scratch); err != nil {
			return fmt.Errorf("dsms: udp send: %w", err)
		}
	}
	return nil
}

// Drain is a no-op on UDP — there are no acks to wait for. It exists so
// transport-generic callers can treat both agent kinds alike.
func (ua *UDPAgent) Drain() error { return nil }

// TraceNegotiated reports whether decision evidence crosses the wire —
// never on UDP.
func (ua *UDPAgent) TraceNegotiated() bool { return false }

// Close releases the socket.
func (ua *UDPAgent) Close() error { return ua.conn.Close() }

// UDPBatcher multiplexes many sources' updates over one connected UDP
// socket, packing update frames into shared datagrams — the 100k-source
// fan-in shape, where per-source sockets and per-update syscalls are
// exactly the overhead being amortized away. One transmit syscall carries
// sendBatch sealed datagrams (sendmmsg on Linux, each run of equal-size
// ones a single segmented message). Safe for concurrent use; Flush
// transmits everything pending, sealed or not.
type UDPBatcher struct {
	mu         sync.Mutex
	conn       *net.UDPConn
	tx         *batchTx
	buf        []byte   // the sealed datagrams, then the open one from open on
	pkts       [][]byte // the sealed datagrams, slices of buf
	open       int
	flushBytes int
}

// DialUDPBatcher connects a batching sender to the server at addr.
// flushBytes caps the datagram payload before the open datagram is
// sealed; <= 0 selects 1200 (conservatively below common path MTUs).
// Values below one frame (e.g. 1) seal after every update — the
// one-update-per-datagram shape of the per-source UDPAgent.
func DialUDPBatcher(addr string, flushBytes int) (*UDPBatcher, error) {
	if flushBytes <= 0 {
		flushBytes = 1200
	}
	c, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsms: udp dial: %w", err)
	}
	conn := c.(*net.UDPConn)
	tx, err := newBatchTx(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dsms: udp dial: %w", err)
	}
	return &UDPBatcher{conn: conn, tx: tx, flushBytes: flushBytes}, nil
}

// Send appends u's frame to the open datagram, sealing it first if
// full or if the frame would take it past maxPayload. An update whose
// frame fails to encode or fits no datagram is refused, and the open
// datagram is left as it was. Implements core.Transport, so per-source
// Agents can share one batcher: NewAgent(cfg, batcher).
func (b *UDPBatcher) Send(u core.Update) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for seal := len(b.buf)-b.open >= b.flushBytes; ; seal = true {
		if seal {
			if err := b.sealLocked(sendBatch); err != nil {
				return err
			}
		}
		mark := len(b.buf)
		if mark == b.open {
			b.buf = wire.AppendPreamble(b.buf, wire.Version, 0)
		}
		buf, err := wire.AppendUpdateFrame(b.buf, &u)
		if err == nil && len(buf)-b.open <= maxPayload {
			b.buf = buf
			return nil
		}
		if b.buf = b.buf[:mark]; err != nil {
			return err
		}
		if mark == b.open {
			return fmt.Errorf("dsms: udp update for %q does not fit a %d-byte datagram", u.SourceID, maxPayload)
		}
	}
}

// sealLocked closes the open datagram, if it holds anything, and sends
// the sealed ones in one batch once there are atLeast. One that buf
// outgrew stays valid where it is: a sealed datagram never changes.
func (b *UDPBatcher) sealLocked(atLeast int) error {
	if len(b.buf) > b.open {
		b.pkts, b.open = append(b.pkts, b.buf[b.open:]), len(b.buf)
	}
	if len(b.pkts) < atLeast {
		return nil
	}
	err := b.tx.sendAll(b.pkts)
	b.buf, b.pkts, b.open = b.buf[:0], b.pkts[:0], 0
	if err != nil {
		return fmt.Errorf("dsms: udp send: %w", err)
	}
	return nil
}

// Flush transmits everything pending: the open datagram is sealed and
// the whole sealed set goes out.
func (b *UDPBatcher) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sealLocked(1)
}

// Close flushes and releases the socket.
func (b *UDPBatcher) Close() error {
	ferr := b.Flush()
	cerr := b.conn.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
