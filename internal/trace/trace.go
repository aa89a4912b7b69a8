// Package trace is the per-update lifecycle flight recorder behind the
// /tracez admin endpoint: a fixed-size, lock-free ring of trace events
// that records each reading's causal chain through the DKF protocol —
// KFc smoothing in/out, the mirror KFm prediction, the residual against
// δ, the send/suppress decision with its numeric evidence, the wire
// frame, the server-side apply, the WAL append, and the query Answer it
// influenced.
//
// The recorder is built for the ingest hot path: Record performs no
// allocation and takes no lock (a seqlock-style versioned slot write),
// every method is nil-receiver safe so tracing compiles down to one
// branch when disabled, and readers (the /tracez scrape) never stop
// writers — a snapshot simply skips slots that were mid-write.
//
// Alongside the ring, each recorder carries a divergence Audit over the
// server-side innovation sequence. Mirror synchrony makes every
// transmitted non-bootstrap update one the mirror's prediction missed
// by more than δ, so the server-observed |innovation| of an applied
// update exceeding δ is expected — but its running maximum bounds how
// far the answered prediction ever was from a measurement, and an
// applied update whose |innovation| is at or below δ is evidence of a
// broken mirror (the source transmitted a reading the server's own
// prediction covered). Both are per-stream signals PR 3's aggregate
// whiteness gauge cannot localize to a single update.
package trace

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Kind identifies a trace event's stage in the update lifecycle.
type Kind uint8

// Event kinds, in causal order along one reading's chain.
const (
	KindSmooth   Kind = 1  // KFc smoothing: Raw in, Value out
	KindPredict  Kind = 2  // KFm prediction: Pred, Residual vs Delta
	KindDecision Kind = 3  // send/suppress decision with evidence (Dec set)
	KindWireTx   Kind = 4  // update frame buffered for transmission (Aux = wire bytes)
	KindWireRx   Kind = 5  // update frame received by the server (Aux = frame bytes)
	KindApply    Kind = 6  // server filter correction (Residual = |innovation|)
	KindWAL      Kind = 7  // update appended to the write-ahead log (Aux = record bytes)
	KindAnswer   Kind = 8  // query answered from the stream's prediction
	KindFwdRx    Kind = 9  // router received the traced update (Aux = route idx)
	KindFwdTx    Kind = 10 // router forwarded the update to a shard (Aux = topology epoch)
	KindFwdAck   Kind = 11 // router observed the shard's cumulative ack (Aux = target shard)
)

// String names the kind for /tracez JSON and diagnostics.
func (k Kind) String() string {
	switch k {
	case KindSmooth:
		return "smooth"
	case KindPredict:
		return "predict"
	case KindDecision:
		return "decision"
	case KindWireTx:
		return "wire_tx"
	case KindWireRx:
		return "wire_rx"
	case KindApply:
		return "apply"
	case KindWAL:
		return "wal"
	case KindAnswer:
		return "answer"
	case KindFwdRx:
		return "fwd_rx"
	case KindFwdTx:
		return "fwd_tx"
	case KindFwdAck:
		return "fwd_ack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind inverts Kind.String for /tracez filter parameters.
func ParseKind(s string) (Kind, error) {
	for k := KindSmooth; k <= KindFwdAck; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// Decision is the outcome of the source-side suppression choice.
type Decision uint8

// Decisions. The zero value means "not a decision event".
const (
	DecisionNone      Decision = 0
	DecisionSuppress  Decision = 1 // |prediction - value| <= δ: nothing sent
	DecisionSend      Decision = 2 // precision would be violated: update transmitted
	DecisionOutlier   Decision = 3 // NIS gate rejected the reading as a glitch
	DecisionBootstrap Decision = 4 // first reading: initializes both filters
)

// String names the decision for /tracez JSON and diagnostics.
func (d Decision) String() string {
	switch d {
	case DecisionNone:
		return ""
	case DecisionSuppress:
		return "suppress"
	case DecisionSend:
		return "send"
	case DecisionOutlier:
		return "outlier"
	case DecisionBootstrap:
		return "bootstrap"
	default:
		return fmt.Sprintf("decision(%d)", uint8(d))
	}
}

// ParseDecision inverts Decision.String for /tracez filter parameters.
func ParseDecision(s string) (Decision, error) {
	for d := DecisionSuppress; d <= DecisionBootstrap; d++ {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown decision %q", s)
}

// Event is one point on a reading's causal chain. TraceID links the
// events of one reading across layers (it is assigned by the source
// node and rides its update's evidence trailer to the server); Seq is
// the reading's stream sequence number. The float fields carry the
// decision evidence for the stream's first attribute; Residual/Delta are
// the max-abs residual across attributes against the precision width.
//
// A KindDecision event is the evidence record of a suppression decision:
// what SourceNode.LastDecision returns, what a traced update carries on
// the wire, and what the server records as received — At is then when
// the source decided.
type Event struct {
	TraceID int64
	Seq     int64
	At      int64 // unix nanoseconds; filled by Record when zero

	Kind Kind
	Dec  Decision

	Raw      float64 // raw reading (attribute 0)
	Value    float64 // smoothed / applied / answered value (attribute 0)
	Pred     float64 // filter prediction (attribute 0)
	Residual float64 // max-abs |prediction - value| (source) or |innovation| (apply)
	Delta    float64 // precision width δ in force
	NIS      float64 // normalized innovation squared, when computed

	Aux int64 // kind-specific payload: wire/WAL bytes
}

// eventWords is the number of atomic words one ring slot stores. The
// slots hold events as word arrays — not structs — so concurrent
// Record/Events stay data-race-free by construction: every load and
// store is atomic, and the per-slot version brackets detect torn reads.
const eventWords = 11

// encode packs the event into w.
func (e *Event) encode(w *[eventWords]atomic.Uint64) {
	w[0].Store(uint64(e.TraceID))
	w[1].Store(uint64(e.Seq))
	w[2].Store(uint64(e.At))
	w[3].Store(uint64(e.Kind) | uint64(e.Dec)<<8)
	w[4].Store(f64bits(e.Raw))
	w[5].Store(f64bits(e.Value))
	w[6].Store(f64bits(e.Pred))
	w[7].Store(f64bits(e.Residual))
	w[8].Store(f64bits(e.Delta))
	w[9].Store(f64bits(e.NIS))
	w[10].Store(uint64(e.Aux))
}

// decode unpacks a slot's words into e.
func (e *Event) decode(w *[eventWords]atomic.Uint64) {
	e.TraceID = int64(w[0].Load())
	e.Seq = int64(w[1].Load())
	e.At = int64(w[2].Load())
	kd := w[3].Load()
	e.Kind = Kind(kd)
	e.Dec = Decision(kd >> 8)
	e.Raw = f64frombits(w[4].Load())
	e.Value = f64frombits(w[5].Load())
	e.Pred = f64frombits(w[6].Load())
	e.Residual = f64frombits(w[7].Load())
	e.Delta = f64frombits(w[8].Load())
	e.NIS = f64frombits(w[9].Load())
	e.Aux = int64(w[10].Load())
}

// EventView is the JSON shape of one event on /tracez. Zero-valued
// evidence fields are omitted so non-decision events stay compact.
type EventView struct {
	TraceID  int64   `json:"trace_id"`
	Seq      int64   `json:"seq"`
	AtUnixNs int64   `json:"at_unix_ns"`
	Kind     string  `json:"kind"`
	Decision string  `json:"decision,omitempty"`
	Raw      float64 `json:"raw,omitempty"`
	Value    float64 `json:"value,omitempty"`
	Pred     float64 `json:"pred,omitempty"`
	Residual float64 `json:"residual,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	NIS      float64 `json:"nis,omitempty"`
	Aux      int64   `json:"aux,omitempty"`
}

// View converts the event to its JSON shape.
func (e Event) View() EventView {
	return EventView{
		TraceID:  e.TraceID,
		Seq:      e.Seq,
		AtUnixNs: e.At,
		Kind:     e.Kind.String(),
		Decision: e.Dec.String(),
		Raw:      e.Raw,
		Value:    e.Value,
		Pred:     e.Pred,
		Residual: e.Residual,
		Delta:    e.Delta,
		NIS:      e.NIS,
		Aux:      e.Aux,
	}
}

// slot is one ring cell: a version word bracketing the event words.
// The version encodes the writing state in its low bit (odd = write in
// progress) and the slot's generation in the remaining bits, so a
// reader can tell both "torn" and "lapped" slots apart from settled
// ones with two loads.
type slot struct {
	ver atomic.Uint64
	w   [eventWords]atomic.Uint64
}

// Options configures a Recorder.
type Options struct {
	// RingSize is the per-stream event capacity, rounded up to a power
	// of two; <= 0 picks DefaultRingSize.
	RingSize int
	// Sample records the full per-reading trail (smooth, predict,
	// suppress decisions) only for readings whose Seq is a multiple of
	// Sample; <= 1 records every reading. Send, bootstrap, and outlier
	// decisions — the rare, interesting ones — are always recorded
	// regardless of sampling, as are all server-side events.
	Sample int
}

// DefaultRingSize is the per-stream event capacity when Options does
// not specify one. 256 events cover roughly the last 50–80 readings of
// a fully traced stream — sized to hold "what just happened" for a
// post-hoc look, not history (the WAL is history).
const DefaultRingSize = 256

// Recorder is one stream's flight recorder: the event ring plus the
// divergence audit. All methods are safe for concurrent use and
// nil-receiver safe.
type Recorder struct {
	mask   uint64
	sample int64
	cursor atomic.Uint64
	slots  []slot
	audit  Audit
}

// New builds a recorder. The ring is allocated up front; steady-state
// recording never allocates again.
func New(opts Options) *Recorder {
	n := opts.RingSize
	if n <= 0 {
		n = DefaultRingSize
	}
	size := 1
	for size < n {
		size <<= 1
	}
	sample := int64(opts.Sample)
	if sample < 1 {
		sample = 1
	}
	return &Recorder{mask: uint64(size - 1), sample: sample, slots: make([]slot, size)}
}

// Cap returns the ring capacity in events (0 on a nil recorder).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Recorded returns the total number of events recorded since creation,
// including those the ring has since overwritten.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}

// Sampled reports whether the full per-reading trail should be recorded
// for a reading at seq. False on a nil recorder, so call sites guard
// their optional events with one method call.
func (r *Recorder) Sampled(seq int64) bool {
	if r == nil {
		return false
	}
	return r.sample <= 1 || seq%r.sample == 0
}

// Record appends one event to the ring. It is lock-free and performs no
// allocation: the event is written into the claimed slot's atomic words
// between two version stores, so a concurrent snapshot either sees the
// settled generation or skips the slot. If two writers lap the ring
// fast enough to collide on one slot the generation check discards it —
// a flight recorder trades that vanishing-probability loss for a
// wait-free hot path. Nil-receiver safe; ev.At is stamped when zero.
func (r *Recorder) Record(ev *Event) {
	if r == nil {
		return
	}
	if ev.At == 0 {
		ev.At = nowUnixNanos()
	}
	i := r.cursor.Add(1) - 1
	s := &r.slots[i&r.mask]
	s.ver.Store(i<<1 | 1) // odd: write in progress
	ev.encode(&s.w)
	s.ver.Store((i + 1) << 1) // even: generation i settled
}

// Events returns a snapshot of the ring's settled events, oldest first.
// It never blocks writers; slots written (or lapped) while the snapshot
// runs are skipped.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	c := r.cursor.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if c > n {
		start = c - n
	}
	out := make([]Event, 0, c-start)
	for i := start; i < c; i++ {
		s := &r.slots[i&r.mask]
		want := (i + 1) << 1
		if s.ver.Load() != want {
			continue
		}
		var ev Event
		ev.decode(&s.w)
		if s.ver.Load() != want {
			continue // overwritten mid-read: torn, drop it
		}
		out = append(out, ev)
	}
	return out
}

// Audit returns the recorder's divergence audit (nil on a nil
// recorder; Audit methods are themselves nil-safe).
func (r *Recorder) Audit() *Audit {
	if r == nil {
		return nil
	}
	return &r.audit
}

// Audit accumulates the server-side divergence evidence for one stream:
// the running max |innovation| of applied updates against δ, and the
// count of applied updates whose |innovation| was at or below δ — which
// mirror synchrony says should never happen for a non-bootstrap
// transmission, so a nonzero count is broken-mirror evidence.
type Audit struct {
	applies    atomic.Int64
	underDelta atomic.Int64
	deltaBits  atomic.Uint64
	lastBits   atomic.Uint64
	lastSeq    atomic.Int64
	sumBits    atomic.Uint64
	maxBits    atomic.Uint64
	maxSeq     atomic.Int64
}

// Observe folds one applied non-bootstrap update's max-abs innovation
// into the audit. Lock-free, allocation-free, nil-receiver safe.
// Non-negative floats order identically to their IEEE 754 bit patterns,
// which is what lets the running max be a plain CAS loop on bits.
func (a *Audit) Observe(seq int64, absInnov, delta float64) {
	if a == nil {
		return
	}
	a.applies.Add(1)
	a.deltaBits.Store(f64bits(delta))
	a.lastBits.Store(f64bits(absInnov))
	a.lastSeq.Store(seq)
	if absInnov <= delta {
		a.underDelta.Add(1)
	}
	for {
		old := a.sumBits.Load()
		if a.sumBits.CompareAndSwap(old, f64bits(f64frombits(old)+absInnov)) {
			break
		}
	}
	bits := f64bits(absInnov)
	for {
		old := a.maxBits.Load()
		if bits <= old {
			return
		}
		if a.maxBits.CompareAndSwap(old, bits) {
			a.maxSeq.Store(seq)
			return
		}
	}
}

// AuditSnapshot is the JSON shape of the divergence audit on
// /tracez/stream/{id}.
type AuditSnapshot struct {
	// Applies is the number of non-bootstrap updates audited.
	Applies int64 `json:"applies"`
	// Delta is the precision width the stream is held to.
	Delta float64 `json:"delta"`
	// LastAbsInnovation / LastSeq describe the most recent audited apply.
	LastAbsInnovation float64 `json:"last_abs_innovation"`
	LastSeq           int64   `json:"last_seq"`
	// MeanAbsInnovation averages |innovation| over all audited applies.
	MeanAbsInnovation float64 `json:"mean_abs_innovation"`
	// MaxAbsInnovation / MaxSeq locate the worst observed divergence:
	// the largest distance between the server's pre-correction
	// prediction and a transmitted measurement, and the reading it
	// happened at. MaxOverDelta is the same maximum in δ units — a
	// stream behaving per its model hovers just above 1; a mis-model or
	// an injected spike stands out.
	MaxAbsInnovation float64 `json:"max_abs_innovation"`
	MaxSeq           int64   `json:"max_abs_innovation_seq"`
	MaxOverDelta     float64 `json:"max_over_delta"`
	// UnderDeltaSends counts applied updates whose |innovation| was at
	// or below δ. The mirror should have suppressed those readings, so
	// anything nonzero is evidence the mirror and server filters have
	// desynchronized.
	UnderDeltaSends int64 `json:"under_delta_sends"`
}

// Snapshot reads the audit without stopping writers. Each field is a
// settled atomic value; cross-field consistency is best-effort.
func (a *Audit) Snapshot() AuditSnapshot {
	var s AuditSnapshot
	if a == nil {
		return s
	}
	s.Applies = a.applies.Load()
	s.Delta = f64frombits(a.deltaBits.Load())
	s.LastAbsInnovation = f64frombits(a.lastBits.Load())
	s.LastSeq = a.lastSeq.Load()
	s.MaxAbsInnovation = f64frombits(a.maxBits.Load())
	s.MaxSeq = a.maxSeq.Load()
	s.UnderDeltaSends = a.underDelta.Load()
	if s.Applies > 0 {
		s.MeanAbsInnovation = f64frombits(a.sumBits.Load()) / float64(s.Applies)
	}
	if s.Delta > 0 {
		s.MaxOverDelta = s.MaxAbsInnovation / s.Delta
	}
	return s
}

// epochWall anchors event timestamps: wall-clock base plus a monotonic
// offset, so stamping an event is one time.Since (no allocation, no
// syscall-visible wall-clock jumps mid-run).
var epochWall = time.Now()
var epochUnixNs = epochWall.UnixNano()

// nowUnixNanos returns the current time as monotonic-anchored unix
// nanoseconds.
func nowUnixNanos() int64 { return epochUnixNs + int64(time.Since(epochWall)) }

// Now exposes the recorder's clock so other layers (the cluster router)
// can stamp timestamps that sort consistently against recorded events.
func Now() int64 { return nowUnixNanos() }

// f64bits/f64frombits shorten math.Float64bits/Float64frombits at the
// encode/decode call sites.
func f64bits(f float64) uint64 { return math.Float64bits(f) }

func f64frombits(b uint64) float64 { return math.Float64frombits(b) }
