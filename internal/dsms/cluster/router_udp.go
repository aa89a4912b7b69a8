package cluster

import (
	"fmt"
	"net"

	"streamkf/internal/dsms/wire"
)

// UDP front end. Sources using the connectionless transport send the
// same datagrams they would send a shard directly — preamble plus
// frames — and the router forwards each update to its owning shard over
// the pooled TCP upstream, preserving the transport contract: no acks,
// no connection state, dedup-by-seq at the shard. A hello datagram gets
// an install datagram back, so the handshake works too. Routes created
// here have no downstream conn (down == nil): shard ForwardAcks still
// settle the route's stamps, there is just nobody to relay them to, and
// nobody to resend what a lost shard lacks (see Router.resume).

// ServeUDP binds a datagram socket and forwards until Close. Blocks.
func (r *Router) ServeUDP(addr string) error {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return fmt.Errorf("cluster: udp listen: %w", err)
	}
	r.connMu.Lock()
	if r.closing {
		r.connMu.Unlock()
		pc.Close()
		return nil
	}
	r.udp = pc
	r.connMu.Unlock()

	buf := make([]byte, 64<<10)
	var reply []byte
	touched := make([]bool, len(r.upstreams))
	var run []fwdItem // the datagram's updates; reused
	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			r.connMu.Lock()
			closing := r.closing
			r.connMu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		_, frames, err := wire.CheckPreamble(buf[:n])
		if err != nil {
			continue // not ours; drop like the shard server does
		}
		for len(frames) > 0 {
			tag, p, rest, err := wire.NextFrame(frames, r.opts.MaxFrame)
			if err != nil {
				break
			}
			f := frames[:len(frames)-len(rest)]
			switch frames = rest; tag {
			case wire.TagUpdate:
				if idb, seq, ok := peekUpdate(p); ok {
					run = append(run, fwdItem{rt: r.routeFor(idb), seq: seq, f: f})
				}

			case wire.TagHello:
				id, err := wire.DecodeHello(p)
				if err != nil {
					continue
				}
				// The hello's RPC flushes: what arrived ahead of it goes first.
				r.relay(run, touched)
				run = run[:0]
				rt := r.routeFor([]byte(id))
				inst, err := r.hello(rt, nil)
				reply = wire.AppendPreamble(reply[:0], wire.Version, 0)
				if err != nil {
					reply, _ = wire.AppendErrorFrame(reply, err.Error())
				} else {
					reply, _ = wire.AppendInstallFrame(reply, inst)
				}
				_, _ = pc.WriteTo(reply, from)
			}
		}
		// A datagram is a run and a natural burst boundary: relay its
		// updates together and flush every shard they touched.
		r.relay(run, touched)
		run = run[:0]
		r.flushTouched(touched)
	}
}

// UDPAddr returns the router's bound UDP address, if ServeUDP is up.
func (r *Router) UDPAddr() string {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.udp == nil {
		return ""
	}
	return r.udp.LocalAddr().String()
}
