// Package wire implements the compact binary framing protocol spoken
// between dsms source agents, query clients, and the central TCP
// server. It replaces the reflection-driven gob envelope protocol: every
// message is a length-prefixed frame with a one-byte tag and fixed-width
// little-endian fields, so steady-state update frames encode and decode
// with zero allocations into per-connection scratch buffers.
//
// A connection opens with a 6-byte preamble in each direction — 4 magic
// bytes, a protocol version, and a feature-bit byte (reserved and zero
// before tracing; the Feat* bits below and FeatCluster) — so a peer speaking
// the wrong protocol (or a future incompatible version) is rejected
// with a clear error instead of an opaque decode failure. Frames follow:
//
//	uint32 LE  length   (tag + payload bytes; never 0, capped by MaxFrame)
//	uint8      tag
//	[]byte     payload  (length-1 bytes, layout per tag)
//
// Every message has one payload encoder and one decoder: the Writer
// methods (stream form) and the Append*Frame helpers (datagram form)
// share the encoder. An update carries only what the server reads: its
// seq is a uvarint and its value count is what the payload's length
// leaves. A traced update carries its decision evidence as a fixed-size
// trailer of its own payload (AppendTracedUpdate, Evidence), so every
// frame is self-contained. cluster.go holds the router ↔ shard tags.
//
// See DESIGN.md "Wire protocol" for the byte-by-byte payload layouts.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"syscall"

	"streamkf/internal/core"
	"streamkf/internal/trace"
)

// Version is the protocol version this package speaks. Peers with a
// different version are rejected during the preamble exchange.
//
// Version history:
//
//	1  initial binary framing (replaced gob)
//	2  install frames carry ResumeSeq so a durable server can tell a
//	   reconnecting source to resume instead of re-bootstrapping.
//	   Within v2 the preamble's sixth byte, written 0 and ignored
//	   through PR 4, became a feature-bit field: peers that
//	   predate it still write 0 (no features) and still ignore what
//	   they read, so feature negotiation is backward compatible without
//	   a version bump.
//	3  constant and linear models settle a gap's covariance steps in closed
//	   form (kalman/owed.go): a v2 peer would lose synchrony, so is refused.
//	4  the update payload drops its time and value count and carries its
//	   seq as a uvarint: id | seq | flags | values [| evidence].
const Version byte = 4

// Feature bits carried in the preamble's reserved byte. A bit is an
// *advertisement*, not a demand: a peer that does not know a bit
// ignores it, so features must only ever enable frames the advertiser
// is prepared to receive.
//
// Bit history: 0x01 advertised the original 65-byte TagTrace payload and
// 0x04 the 73-byte one with timestamps; both are retired — never set,
// never read — with the TagTrace frame itself. A peer from either era
// sees no bit it knows and sends (or is sent) no evidence, so it degrades
// to untraced instead of receiving bytes it would reject. 0x02 was the
// one-update forward's FeatCluster, retired so; 0x20 is (cluster.go).
const (
	// FeatEvidence announces that this side accepts update payloads
	// carrying an evidence trailer — what a tracing server consumes.
	// Agents must not send trailers to a server that did not advertise
	// it: an older server would answer the longer payload with an error
	// frame, which is sticky and would fail the agent's next Offer.
	FeatEvidence byte = 0x08
	// FeatResume announces that a source takes a mid-stream Install (from
	// a router that lost a shard): it resends what it keeps past the
	// ResumeSeq on the same connection, behind a hello as the marker.
	FeatResume byte = 0x10
)

// DefaultMaxFrame caps the accepted frame length (tag + payload). A
// frame announcing a larger length is rejected before any payload is
// read, bounding per-connection memory.
const DefaultMaxFrame = 1 << 20

// Magic opens every connection. It spells "DKFW" (Dual Kalman Filter
// Wire) and deliberately collides with no common plaintext protocol.
var Magic = [4]byte{'D', 'K', 'F', 'W'}

const preambleLen = 6 // magic + version + feature bits (reserved before tracing)

// Tag identifies a frame's message type.
type Tag byte

// Frame tags. The hello→install exchange installs a source's filter
// configuration; update/ack carry the pipelined DKF update stream;
// query/answer serve value queries; errmsg reports any server-side
// failure.
const (
	TagHello   Tag = 0x01 // client → server: sourceID
	TagInstall Tag = 0x02 // server → client: filter configuration
	TagUpdate  Tag = 0x03 // client → server: one core.Update
	TagAck     Tag = 0x04 // server → client: cumulative acked sequence
	TagQuery   Tag = 0x05 // client → server: queryID at seq
	TagAnswer  Tag = 0x06 // server → client: query result values
	TagError   Tag = 0x07 // server → client: failure description
	// 0x08 was TagTrace, a decision-evidence frame ahead of its update:
	// retired, not reused — inbound it is an unknown tag like any other.
)

// tagNames names the tags, the cluster range (cluster.go) included.
var tagNames = [...]string{
	TagHello: "hello", TagInstall: "install", TagUpdate: "update", TagAck: "ack",
	TagQuery: "query", TagAnswer: "answer", TagError: "error",
	TagForward: "forward", TagForwardAck: "forward_ack", TagClusterReg: "cluster_reg",
	TagRegistered: "registered", TagSnapshot: "snapshot", TagRestore: "restore", TagStateAck: "state_ack",
}

// String names the tag for diagnostics.
func (t Tag) String() string {
	if int(t) < len(tagNames) && tagNames[t] != "" {
		return tagNames[t]
	}
	return fmt.Sprintf("tag(0x%02x)", byte(t))
}

// ErrBadMagic reports a peer that is not speaking the streamkf wire
// protocol at all.
var ErrBadMagic = errors.New("wire: bad magic: peer is not speaking the streamkf wire protocol")

// ErrMalformed reports a frame whose payload does not parse under its
// tag's layout.
var ErrMalformed = errors.New("wire: malformed frame")

// VersionError reports a peer speaking an incompatible protocol version.
type VersionError struct {
	Got  byte // the peer's version
	Want byte // the version this side speaks
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: unsupported protocol version %d (speaking %d)", e.Got, e.Want)
}

// FrameSizeError reports a frame announcing a length beyond the
// configured cap.
type FrameSizeError struct {
	Len uint32
	Max uint32
}

// Error implements error.
func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame length %d exceeds limit %d", e.Len, e.Max)
}

// CheckVersion rejects any peer version other than ours.
func CheckVersion(got byte) error {
	if got != Version {
		return &VersionError{Got: got, Want: Version}
	}
	return nil
}

// mapReadErr classifies a short read: a clean EOF at a message boundary
// becomes core.ErrPeerClosed, an EOF inside a message becomes
// core.ErrTruncated. midMessage forces the truncation classification for
// reads that began after part of a frame was already consumed — and
// extends it to a connection reset there: a peer that closes with our
// bytes unread answers with RST instead of FIN, and to the reader that
// is the same event, a frame cut short.
func mapReadErr(err error, midMessage bool) error {
	if errors.Is(err, io.EOF) && !midMessage {
		return core.ErrPeerClosed
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		midMessage && errors.Is(err, syscall.ECONNRESET) {
		return fmt.Errorf("%w: %v", core.ErrTruncated, err)
	}
	return err
}

// Writer frames and buffers outbound messages. All methods append to an
// internal bufio buffer; nothing reaches the connection until Flush (or
// the buffer overflows). Encoding reuses one scratch buffer, so
// steady-state update frames allocate nothing.
//
// Writer is not safe for concurrent use; callers serialize access.
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
	err     error // first encode error in the frame being built; finish reports it
	max     uint32

	// OnFrame, when set, observes every framed message as it is
	// buffered: the tag and the full frame size in bytes (length prefix
	// included). The transport layer uses it for per-tag traffic
	// telemetry; the hook must not allocate or block.
	OnFrame func(tag Tag, frameBytes int)
}

// NewWriter wraps w. bufSize <= 0 picks a default sized for a full
// default send window; maxFrame <= 0 uses DefaultMaxFrame.
func NewWriter(w io.Writer, bufSize int, maxFrame int) *Writer {
	if bufSize <= 0 {
		bufSize = 8192
	}
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Writer{bw: bufio.NewWriterSize(w, bufSize), max: uint32(maxFrame)}
}

// WritePreamble buffers this side's preamble advertising the given
// feature bits.
func (w *Writer) WritePreamble(version, features byte) error {
	var p [preambleLen]byte
	_, err := w.bw.Write(AppendPreamble(p[:0], version, features))
	return err
}

// Flush pushes all buffered frames to the connection.
func (w *Writer) Flush() error { return w.bw.Flush() }

// begin resets the scratch buffer with a frame header placeholder.
func (w *Writer) begin(tag Tag) {
	w.scratch, w.err = append(w.scratch[:0], 0, 0, 0, 0, byte(tag)), nil
}

// str appends a string field to the frame being built, latching the
// first failure (an over-long string) for finish to report — the
// encode-side twin of Cursor's latch.
func (w *Writer) str(s string) {
	if w.err == nil {
		w.scratch, w.err = AppendString(w.scratch, s)
	}
}

// finish patches the length prefix and writes the frame, tail last, into the buffer.
func (w *Writer) finish(tail []byte) error {
	if w.err != nil {
		return w.err
	}
	n := uint32(len(w.scratch) - 4 + len(tail)) // tag + payload
	if n > w.max {
		return &FrameSizeError{Len: n, Max: w.max}
	}
	binary.LittleEndian.PutUint32(w.scratch[:4], n)
	_, _ = w.bw.Write(w.scratch) // a failed write is sticky in bw: the next one reports it
	if _, err := w.bw.Write(tail); err != nil {
		return err
	}
	if w.OnFrame != nil {
		w.OnFrame(Tag(w.scratch[4]), 4+int(n))
	}
	return nil
}

// AppendU16 appends v little-endian. The Append* helpers are the
// building blocks of every frame payload; internal/wal reuses them so
// its on-disk records share this package's encoding exactly.
func AppendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendI64 appends v little-endian as its two's-complement bits.
func AppendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendF64 appends the IEEE 754 bits of v little-endian.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends a u16 length prefix followed by the bytes of s.
func AppendString(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return b, fmt.Errorf("wire: string field of %d bytes exceeds %d", len(s), math.MaxUint16)
	}
	b = AppendU16(b, uint16(len(s)))
	return append(b, s...), nil
}

// Hello buffers the source handshake request.
func (w *Writer) Hello(sourceID string) error {
	w.begin(TagHello)
	w.str(sourceID)
	return w.finish(nil)
}

// appendInstall appends the install payload — the one encoder behind
// Writer.Install and its datagram twin AppendInstallFrame.
func appendInstall(b []byte, inst Install) ([]byte, error) {
	var err error
	if b, err = AppendString(b, inst.SourceID); err != nil {
		return b, err
	}
	if b, err = AppendString(b, inst.Model); err != nil {
		return b, err
	}
	b = AppendF64(b, inst.Delta)
	b = AppendF64(b, inst.F)
	return AppendI64(b, inst.ResumeSeq), nil
}

// appendError appends the error payload behind Writer.Error and
// AppendErrorFrame. Messages beyond 64 KiB are truncated rather than
// rejected — an error path must not fail on length.
func appendError(b []byte, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	b, _ = AppendString(b, msg)
	return b
}

// Install buffers the server's handshake reply: the filter configuration
// the connecting source must run (see the Install type for ResumeSeq).
func (w *Writer) Install(inst Install) error {
	w.begin(TagInstall)
	var err error
	if w.scratch, err = appendInstall(w.scratch, inst); err != nil {
		return err
	}
	return w.finish(nil)
}

// Update payload flags. Every trailer rides behind a bit of its own and
// is fixed-size or self-delimiting, so that the values are what is left
// (DESIGN §8). A payload with a bit this side does not know is refused:
// its trailer could not be told from values.
const (
	flagBootstrap byte = 0x01
	flagEvidence  byte = 0x02 // the evidence trailer follows the values
	flagsKnown         = flagBootstrap | flagEvidence
)

// evidenceLen is the size of an update payload's evidence trailer:
//
//	int64   traceID
//	uint8   decision (trace.Decision)
//	float64 raw, value, pred, residual, delta, nis
//	int64   decidedAtUnixNs
//
// the KindDecision event behind the update, less its seq (the update's
// own). Only this file knows the layout.
const evidenceLen = 8 + 1 + 6*8 + 8

// AppendUpdate appends the update payload encoding of u to b — the
// exact bytes an untraced TagUpdate frame carries, also reused verbatim
// as the WAL update record payload. Appending into a scratch buffer with
// spare capacity allocates nothing.
func AppendUpdate(b []byte, u *core.Update) ([]byte, error) {
	return AppendTracedUpdate(b, u, nil)
}

// AppendTracedUpdate is AppendUpdate with the decision evidence ev (a
// KindDecision event; nil for none) as the payload's trailer:
//
//	str id | uvarint seq | u8 flags | f64 values… [| evidence]
//
// u.Time is not sent. It is only legal toward a peer that advertised
// FeatEvidence.
func AppendTracedUpdate(b []byte, u *core.Update, ev *trace.Event) ([]byte, error) {
	if u.Seq < 0 {
		return b, fmt.Errorf("wire: update seq %d is negative", u.Seq)
	}
	var err error
	if b, err = AppendString(b, u.SourceID); err != nil {
		return b, err
	}
	b = binary.AppendUvarint(b, uint64(u.Seq))
	var flags byte
	if u.Bootstrap {
		flags |= flagBootstrap
	}
	if ev != nil {
		flags |= flagEvidence
	}
	b = append(b, flags)
	for _, v := range u.Values {
		b = AppendF64(b, v)
	}
	if ev != nil {
		b = AppendI64(b, ev.TraceID)
		b = append(b, byte(ev.Dec))
		for _, v := range [...]float64{ev.Raw, ev.Value, ev.Pred, ev.Residual, ev.Delta, ev.NIS} {
			b = AppendF64(b, v)
		}
		b = AppendI64(b, ev.At)
	}
	return b, nil
}

// Update buffers one DKF update frame, with ev (nil for none) as its
// evidence trailer.
func (w *Writer) Update(u *core.Update, ev *trace.Event) error {
	w.begin(TagUpdate)
	var err error
	if w.scratch, err = AppendTracedUpdate(w.scratch, u, ev); err != nil {
		return err
	}
	return w.finish(nil)
}

// Ack buffers a cumulative acknowledgement: every update with sequence
// number <= seq has been folded into the server filter.
func (w *Writer) Ack(seq int64) error {
	w.begin(TagAck)
	w.scratch = AppendI64(w.scratch, seq)
	return w.finish(nil)
}

// Query buffers a value-query request.
func (w *Writer) Query(queryID string, seq int64) error {
	w.begin(TagQuery)
	w.str(queryID)
	w.scratch = AppendI64(w.scratch, seq)
	return w.finish(nil)
}

// Answer buffers a query result.
func (w *Writer) Answer(queryID string, values []float64) error {
	w.begin(TagAnswer)
	w.str(queryID)
	if len(values) > math.MaxUint16 {
		return fmt.Errorf("wire: answer with %d values exceeds %d", len(values), math.MaxUint16)
	}
	w.scratch = AppendU16(w.scratch, uint16(len(values)))
	for _, v := range values {
		w.scratch = AppendF64(w.scratch, v)
	}
	return w.finish(nil)
}

// Error buffers a failure report.
func (w *Writer) Error(msg string) error {
	w.begin(TagError)
	w.scratch = appendError(w.scratch, msg)
	return w.finish(nil)
}

// MaxReadBuffer is the size a growing Reader's buffer doubles up to.
const MaxReadBuffer = 64 << 10

// Reader decodes inbound frames. Source and query ids repeat per
// connection, so a one-entry intern cache makes steady-state update
// decoding allocation-free.
//
// A run is the frames one read from the connection delivered: Next, then
// Next again while Ready reports a frame. A run's payloads alias the read
// buffer, which only a Next that reads from the connection rewrites, so
// they stay valid together: a receiver can hold a run as one unit of work.
//
// The buffer starts at 8 KiB. A growing reader doubles it, up to its cap,
// at the read after one that filled it, so a burst is read in fewer,
// larger reads while a peer whose reads never fill 8 KiB keeps 8 KiB. A
// frame larger than the buffer grows it to the frame's size.
//
// Reader is not safe for concurrent use.
type Reader struct {
	rd      io.Reader
	buf     []byte // buf[r:w] is received and not yet returned
	r, w    int
	limit   int   // the size buf doubles up to
	err     error // of the last read, returned once buf[r:w] runs short
	max     uint32
	lastID  string // intern cache for Update.SourceID
	lastQID string // intern cache for query ids
}

// NewReader wraps rd with a buffer that starts at 8 KiB and doubles up to
// maxBuf (<= 8 KiB: it does not). maxFrame <= 0 uses DefaultMaxFrame.
func NewReader(rd io.Reader, maxBuf, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{rd: rd, buf: make([]byte, 8<<10), limit: maxBuf, max: uint32(maxFrame)}
}

// fill reads until n bytes are buffered. Before each read the buffered
// bytes move to the front: into a new buffer if the last read filled
// this one and it may grow, or if n does not fit.
func (r *Reader) fill(n int) error {
	for r.w-r.r < n {
		if r.err != nil {
			return r.err
		}
		buf := r.buf
		if r.w == len(buf) && len(buf) < r.limit || n > len(buf) {
			buf = make([]byte, max(n, min(2*len(buf), r.limit)))
		}
		r.buf, r.w, r.r = buf, copy(buf, r.buf[r.r:r.w]), 0
		m, err := r.rd.Read(buf[r.w:])
		r.w, r.err = r.w+m, err
	}
	return nil
}

// ReadPreamble consumes and validates the peer's preamble, returning
// its protocol version and advertised feature bits. The caller decides
// whether the version is acceptable (CheckVersion implements strict
// equality). Unknown bits must be ignored, which is what keeps the byte
// forward compatible.
func (r *Reader) ReadPreamble() (version, features byte, err error) {
	if err := r.fill(preambleLen); err != nil {
		return 0, 0, mapReadErr(err, r.w > r.r)
	}
	p := r.buf[r.r:]
	if r.r += preambleLen; [4]byte(p[:4]) != Magic {
		return 0, 0, ErrBadMagic
	}
	return p[4], p[5], nil
}

// Ready reports the tag of the next frame if all of it is in the read
// buffer already: Next then continues the run, reading nothing.
// It decides from the header and the buffered length, making no error.
func (r *Reader) Ready() (Tag, bool) {
	buf := r.buf[r.r:r.w]
	if len(buf) < 5 {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(buf)
	return Tag(buf[4]), n >= 1 && n <= r.max && len(buf) >= 4+int(n)
}

// Next reads one frame, returning its tag and payload, valid until the
// first later Next for which Ready was false. A clean EOF at a frame
// boundary returns core.ErrPeerClosed; mid-frame, core.ErrTruncated.
func (r *Reader) Next() (Tag, []byte, error) {
	if err := r.fill(5); err != nil {
		// A partial header is a truncation, not a clean close.
		return 0, nil, mapReadErr(err, r.w > r.r)
	}
	if n := binary.LittleEndian.Uint32(r.buf[r.r:]); n >= 1 && n <= r.max {
		if err := r.fill(4 + int(n)); err != nil {
			return 0, nil, mapReadErr(err, true)
		}
	}
	tag, p, rest, err := NextFrame(r.buf[r.r:r.w], int(r.max))
	r.r = r.w - len(rest)
	return tag, p, err
}

// Frame returns the frame, header included, of payload p the last Next returned.
func (r *Reader) Frame(p []byte) []byte { return r.buf[r.r-len(p)-5 : r.r] }

// internID returns a string equal to b, reusing the cached copy when the
// bytes repeat (they always do: one source per connection).
func internID(cache *string, b []byte) string {
	if *cache != string(b) {
		*cache = string(b)
	}
	return *cache
}

// Cursor is a bounds-checked decode cursor over an encoded payload.
// Reads past the end latch it into a failed state (OK turns false) and
// return zero values, so a decoder can read a whole layout and check
// validity once at the end. internal/wal reuses it for on-disk records.
type Cursor struct {
	b   []byte
	off int
	ok  bool
}

// NewCursor returns a cursor positioned at the start of p.
func NewCursor(p []byte) Cursor { return Cursor{b: p, ok: true} }

// Take consumes and returns the next n bytes, or nil past the end.
func (c *Cursor) Take(n int) []byte {
	if !c.ok || c.off+n > len(c.b) {
		c.ok = false
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

// fixed is Take for a fixed-width field of n <= 8 bytes: zeros past the
// end, so the field reads as 0 once the cursor has failed.
func (c *Cursor) fixed(n int) []byte {
	if s := c.Take(n); s != nil {
		return s
	}
	return zeros[:n]
}

var zeros [8]byte

// U8 consumes one byte.
func (c *Cursor) U8() byte { return c.fixed(1)[0] }

// U16 consumes a little-endian uint16.
func (c *Cursor) U16() uint16 { return binary.LittleEndian.Uint16(c.fixed(2)) }

// U32 consumes a little-endian uint32.
func (c *Cursor) U32() uint32 { return binary.LittleEndian.Uint32(c.fixed(4)) }

// I64 consumes a little-endian int64.
func (c *Cursor) I64() int64 { return int64(binary.LittleEndian.Uint64(c.fixed(8))) }

// Uvarint consumes an unsigned LEB128 varint in its canonical (shortest)
// form and no larger than math.MaxInt64; anything else latches failure.
func (c *Cursor) Uvarint() int64 {
	if !c.ok {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 || v > math.MaxInt64 || n > 1 && c.b[c.off+n-1] == 0 {
		c.ok = false
		return 0
	}
	c.off += n
	return int64(v)
}

// F64 consumes a little-endian IEEE 754 float64.
func (c *Cursor) F64() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(c.fixed(8))) }

// Str consumes a u16-length-prefixed byte string.
func (c *Cursor) Str() []byte { return c.Take(int(c.U16())) }

// OK reports whether every read so far stayed in bounds.
func (c *Cursor) OK() bool { return c.ok }

// Remaining returns the number of unconsumed bytes — a cheap sanity
// bound for decoded element counts before allocating for them.
func (c *Cursor) Remaining() int {
	if !c.ok {
		return 0
	}
	return len(c.b) - c.off
}

// Done reports a fully and exactly consumed payload.
func (c *Cursor) Done() bool { return c.ok && c.off == len(c.b) }

func malformed(tag Tag) error {
	return fmt.Errorf("%w: bad %v payload", ErrMalformed, tag)
}

// DecodeHello parses a hello payload.
func DecodeHello(p []byte) (sourceID string, err error) {
	c := NewCursor(p)
	id := c.Str()
	if !c.Done() {
		return "", malformed(TagHello)
	}
	return string(id), nil
}

// Install is the handshake reply. ResumeSeq >= 0 tells a source holding
// unacknowledged updates past that sequence to resend them and continue
// without re-bootstrapping (the server recovered its filter state from
// durable storage); ResumeSeq < 0 means the server has no state for the
// source and expects a bootstrap.
type Install struct {
	SourceID  string
	Model     string
	Delta     float64
	F         float64
	ResumeSeq int64
}

// DecodeInstall parses an install payload.
func DecodeInstall(p []byte) (Install, error) {
	c := NewCursor(p)
	in := Install{SourceID: string(c.Str()), Model: string(c.Str()), Delta: c.F64(), F: c.F64(), ResumeSeq: c.I64()}
	if !c.Done() {
		return Install{}, malformed(TagInstall)
	}
	return in, nil
}

// UpdateFields is an update payload split by Parse, aliasing it: a
// receiver resolves ID before it decides where DecodeInto writes.
type UpdateFields struct {
	ID    []byte
	seq   int64
	flags byte
	vals  []byte
}

// Parse splits update payload p into f's fields in place (a returned struct
// is copied out through the stack): false for an overlong or out-of-range
// seq (past an int: 2^31−1 on a 32-bit build), an unknown flag bit, or
// values not whole f64s past the trailer.
func (f *UpdateFields) Parse(p []byte) bool {
	c := NewCursor(p)
	f.ID, f.seq, f.flags = c.Str(), c.Uvarint(), c.U8()
	n := c.Remaining()
	if f.flags&flagEvidence != 0 {
		n -= evidenceLen
	}
	if !c.OK() || n < 0 || n%8 != 0 || f.flags&^flagsKnown != 0 || f.seq > math.MaxInt {
		return false
	}
	f.vals = c.Take(n)
	return true
}

// DecodeInto writes the update into u, reusing u.Values, with id as its
// SourceID and Time and Handle zeroed: neither is on the wire.
func (f *UpdateFields) DecodeInto(u *core.Update, id string) {
	u.SourceID = id
	u.Seq = int(f.seq)
	u.Bootstrap = f.flags&flagBootstrap != 0
	u.Time, u.Handle = 0, 0
	u.Values = u.Values[:0]
	for i := 0; i < len(f.vals); i += 8 {
		u.Values = append(u.Values, math.Float64frombits(binary.LittleEndian.Uint64(f.vals[i:])))
	}
}

// DecodeUpdateInto parses the update payload layout into u, reusing
// u.Values; a well-formed evidence trailer is accepted and stepped over,
// whether or not the receiver traces. The SourceID bytes are passed
// through the caller-supplied intern (which may allocate or reuse a
// cached string).
func DecodeUpdateInto(p []byte, u *core.Update, intern func([]byte) string) error {
	var f UpdateFields
	if !f.Parse(p) {
		return malformed(TagUpdate)
	}
	f.DecodeInto(u, intern(f.ID))
	return nil
}

// DecodeUpdate parses an update payload into u, reusing u.Values and the
// reader's source-id intern cache so steady-state decoding allocates
// nothing.
func (r *Reader) DecodeUpdate(p []byte, u *core.Update) error {
	return DecodeUpdateInto(p, u, func(b []byte) string { return internID(&r.lastID, b) })
}

// DecodeUpdatePayload parses a standalone update payload (e.g. a WAL
// record) into u, reusing u.Values. The source id is freshly allocated;
// callers replaying many records may intern it themselves.
func DecodeUpdatePayload(p []byte, u *core.Update) error {
	return DecodeUpdateInto(p, u, func(b []byte) string { return string(b) })
}

// DecodeAck parses a cumulative ack payload.
func DecodeAck(p []byte) (seq int64, err error) {
	c := NewCursor(p)
	seq = c.I64()
	if !c.Done() {
		return 0, malformed(TagAck)
	}
	return seq, nil
}

// DecodeQuery parses a query payload, interning the repeated query id.
func (r *Reader) DecodeQuery(p []byte) (queryID string, seq int64, err error) {
	c := NewCursor(p)
	id, seq := c.Str(), c.I64()
	if !c.Done() || id == nil {
		return "", 0, malformed(TagQuery)
	}
	return internID(&r.lastQID, id), seq, nil
}

// DecodeAnswer parses an answer payload. The values slice is freshly
// allocated: answers are handed to callers who retain them.
func DecodeAnswer(p []byte) (queryID string, values []float64, err error) {
	c := NewCursor(p)
	id, n := c.Str(), int(c.U16())
	raw := c.Take(8 * n)
	if !c.Done() || id == nil {
		return "", nil, malformed(TagAnswer)
	}
	values = make([]float64, n)
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return string(id), values, nil
}

// Evidence is the undecoded evidence trailer of a traced update payload,
// aliasing the payload's bytes: valid as long as they are.
type Evidence [evidenceLen]byte

// UpdateEvidence returns the evidence trailer of update payload p, nil
// when it carries none or is not laid out as one that does.
func UpdateEvidence(p []byte) *Evidence {
	var f UpdateFields
	if !f.Parse(p) || f.flags&flagEvidence == 0 {
		return nil
	}
	return (*Evidence)(p[len(p)-evidenceLen:])
}

// TraceID is the id the source minted for the update's reading — all a
// forwarding hop needs of the evidence.
func (e *Evidence) TraceID() int64 { return int64(binary.LittleEndian.Uint64(e[:])) }

// Event decodes the trailer into the KindDecision event it encodes; seq
// is its update's.
func (e *Evidence) Event(seq int64) trace.Event {
	c := NewCursor(e[:])
	return trace.Event{
		TraceID: c.I64(), Seq: seq, Kind: trace.KindDecision, Dec: trace.Decision(c.U8()),
		Raw: c.F64(), Value: c.F64(), Pred: c.F64(), Residual: c.F64(), Delta: c.F64(), NIS: c.F64(),
		At: c.I64(),
	}
}

// DecodeError parses an error payload.
func DecodeError(p []byte) (msg string, err error) {
	c := NewCursor(p)
	m := c.Str()
	if !c.Done() {
		return "", malformed(TagError)
	}
	return string(m), nil
}

// Datagram helpers.
//
// A self-describing datagram is the 6-byte preamble followed by one or
// more frames in the standard u32-LE length + u8 tag layout — byte for
// byte the v2 stream encoding, just re-anchored at every datagram so a
// receiver needs no connection state to parse one. The helpers below
// build and split datagrams in caller-owned buffers; steady-state use
// with retained capacity allocates nothing.

// AppendPreamble appends the magic/version/features preamble to b.
func AppendPreamble(b []byte, version, features byte) []byte {
	b = append(b, Magic[:]...)
	return append(b, version, features)
}

// CheckPreamble validates a datagram's preamble, returning its feature
// bits and the frame bytes that follow. The version must match exactly
// (CheckVersion); unknown feature bits are passed through for the
// caller to ignore.
func CheckPreamble(p []byte) (features byte, rest []byte, err error) {
	if len(p) < preambleLen {
		return 0, nil, fmt.Errorf("%w: short preamble", core.ErrTruncated)
	}
	if [4]byte(p[:4]) != Magic {
		return 0, nil, ErrBadMagic
	}
	if err := CheckVersion(p[4]); err != nil {
		return 0, nil, err
	}
	return p[5], p[preambleLen:], nil
}

// BeginFrame appends a frame header placeholder for tag. The caller
// appends the payload with the Append* helpers, then closes the frame
// with EndFrame, passing len(b) as it was before BeginFrame.
func BeginFrame(b []byte, tag Tag) []byte {
	return append(b, 0, 0, 0, 0, byte(tag))
}

// EndFrame patches the length prefix of the frame opened at start.
func EndFrame(b []byte, start int) ([]byte, error) {
	n := uint32(len(b) - start - 4) // tag + payload
	if n > DefaultMaxFrame {
		return b, &FrameSizeError{Len: n, Max: DefaultMaxFrame}
	}
	binary.LittleEndian.PutUint32(b[start:], n)
	return b, nil
}

// NextFrame splits the first frame off p, returning its tag, payload
// and the remaining bytes. maxFrame <= 0 uses DefaultMaxFrame.
func NextFrame(p []byte, maxFrame int) (tag Tag, payload, rest []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(p) < 5 {
		return 0, nil, nil, fmt.Errorf("%w: short frame header", core.ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(p)
	if n > uint32(maxFrame) {
		return 0, nil, nil, &FrameSizeError{Len: n, Max: uint32(maxFrame)}
	}
	if n < 1 || len(p) < 4+int(n) {
		return 0, nil, nil, fmt.Errorf("%w: frame length %d is zero or past the end", ErrMalformed, n)
	}
	return Tag(p[4]), p[5 : 4+n], p[4+n:], nil
}

// AppendHelloFrame appends a complete hello frame.
func AppendHelloFrame(b []byte, sourceID string) ([]byte, error) {
	start := len(b)
	b = BeginFrame(b, TagHello)
	var err error
	if b, err = AppendString(b, sourceID); err != nil {
		return b, err
	}
	return EndFrame(b, start)
}

// AppendInstallFrame appends a complete install frame.
func AppendInstallFrame(b []byte, inst Install) ([]byte, error) {
	start := len(b)
	b, err := appendInstall(BeginFrame(b, TagInstall), inst)
	if err != nil {
		return b, err
	}
	return EndFrame(b, start)
}

// AppendUpdateFrame appends a complete update frame.
func AppendUpdateFrame(b []byte, u *core.Update) ([]byte, error) {
	start := len(b)
	b = BeginFrame(b, TagUpdate)
	var err error
	if b, err = AppendUpdate(b, u); err != nil {
		return b, err
	}
	return EndFrame(b, start)
}

// AppendErrorFrame appends a complete error frame.
func AppendErrorFrame(b []byte, msg string) ([]byte, error) {
	start := len(b)
	return EndFrame(appendError(BeginFrame(b, TagError), msg), start)
}
