package core

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrDropped is returned by a detectably-lossy transport when an update
// is lost in flight.
var ErrDropped = errors.New("core: update dropped in transit")

// ErrPeerClosed reports that the remote end closed the connection
// cleanly, at a message boundary — the failure mode of an orderly server
// shutdown. Wrap it so callers can distinguish a clean close from data
// loss with errors.Is.
var ErrPeerClosed = errors.New("core: peer closed the connection")

// ErrTruncated reports a connection that died mid-message: bytes of a
// frame arrived and then the stream ended. Unlike ErrPeerClosed this is
// never the result of an orderly shutdown — data was lost in flight.
var ErrTruncated = errors.New("core: connection truncated mid-message")

// LossMode selects how a LossyTransport reports a dropped update.
type LossMode int

const (
	// LossSilent swallows the update and reports success — the failure
	// mode of a fire-and-forget datagram. Silent loss breaks mirror
	// synchrony permanently: the source's mirror has already folded in a
	// correction the server never saw. The tests use this mode to prove
	// why the protocol needs acknowledged delivery.
	LossSilent LossMode = iota
	// LossDetect returns ErrDropped, the failure mode of an
	// acknowledged send that timed out. A ReliableTransport can mask it.
	LossDetect
)

// LossyTransport wraps a Transport and drops updates with probability P.
// Deterministic given Seed.
type LossyTransport struct {
	Inner Transport
	P     float64
	Mode  LossMode

	rng     *rand.Rand
	dropped int
}

// NewLossyTransport wraps inner with seeded random loss.
func NewLossyTransport(inner Transport, p float64, mode LossMode, seed int64) (*LossyTransport, error) {
	if inner == nil {
		return nil, errors.New("core: nil inner transport")
	}
	if p < 0 || p >= 1 {
		return nil, fmt.Errorf("core: loss probability %v, want [0, 1)", p)
	}
	return &LossyTransport{Inner: inner, P: p, Mode: mode, rng: rand.New(rand.NewSource(seed))}, nil
}

// Send implements Transport with injected loss. Bootstrap updates are
// never dropped: they ride the connection-establishment handshake, which
// is reliable in any realistic deployment.
func (l *LossyTransport) Send(u Update) error {
	if !u.Bootstrap && l.rng.Float64() < l.P {
		l.dropped++
		if l.Mode == LossSilent {
			return nil
		}
		return ErrDropped
	}
	return l.Inner.Send(u)
}

// Dropped returns how many updates were lost.
func (l *LossyTransport) Dropped() int { return l.dropped }

// ReliableTransport retries a detectably-lossy inner transport until the
// update is delivered or MaxRetries is exhausted. Combined with the DKF
// design decision that the mirror corrects *before* the send, delivery
// must eventually succeed or the session must fail loudly — silently
// giving up would desynchronize the filters.
type ReliableTransport struct {
	Inner      Transport
	MaxRetries int

	retries int
}

// NewReliableTransport wraps inner with up to maxRetries resends.
func NewReliableTransport(inner Transport, maxRetries int) (*ReliableTransport, error) {
	if inner == nil {
		return nil, errors.New("core: nil inner transport")
	}
	if maxRetries < 1 {
		return nil, fmt.Errorf("core: maxRetries = %d, want >= 1", maxRetries)
	}
	return &ReliableTransport{Inner: inner, MaxRetries: maxRetries}, nil
}

// Send implements Transport with retry-until-delivered semantics. Every
// resend happens inside the call, so the update is never kept past it.
func (r *ReliableTransport) Send(u Update) error {
	var err error
	for attempt := 0; attempt <= r.MaxRetries; attempt++ {
		if attempt > 0 {
			r.retries++
		}
		if err = r.Inner.Send(u); err == nil {
			return nil
		}
		if !errors.Is(err, ErrDropped) {
			return err // a real protocol error, not transit loss
		}
	}
	return fmt.Errorf("core: update %d undeliverable after %d retries: %w", u.Seq, r.MaxRetries, err)
}

// Retries returns the total number of resends performed.
func (r *ReliableTransport) Retries() int { return r.retries }

// NewSessionWithTransport builds a session whose updates flow through a
// caller-supplied transport chain ending at the paired server node. The
// chain is constructed by wrap, which receives the direct-to-server
// transport and returns the transport the source should use.
func NewSessionWithTransport(cfg Config, wrap func(direct Transport) (Transport, error)) (*Session, error) {
	sess, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		tr, err := wrap(DirectTransport{Server: sess.server})
		if err != nil {
			return nil, err
		}
		if tr == nil {
			return nil, errors.New("core: wrap returned nil transport")
		}
		sess.transport = tr
	}
	return sess, nil
}
