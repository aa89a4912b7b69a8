package wire

import (
	"fmt"
	"math"
)

// Cluster framing: the router ↔ shard half of the protocol.
//
// A dkf-router multiplexes many sources over one upstream connection
// per shard, which breaks the v2 assumption that a connection carries
// exactly one source (acks are bare sequence numbers). The forward
// envelope fixes that with a router-assigned u32 route index: the
// shard acks (idx, seq) pairs and the router fans them back out to the
// right downstream connections. The remaining tags are the router's
// RPCs — remote registration, and the snapshot/restore pair that moves
// one stream's checkpoint state between shards during migration.
//
// Tags 0x09–0x0f extend the v2 namespace without colliding with the
// WAL's on-disk records (0x10+, see persist.go). A shard advertises
// FeatCluster in its preamble; a router refuses an upstream that does
// not, so plain v2 servers never see these tags.
const (
	TagForward    Tag = 0x09 // router → shard: u32 idx, i64 epoch, then one route's run of update frames
	TagForwardAck Tag = 0x0a // shard → router: u32 idx, i64 seq (cumulative per route)
	TagClusterReg Tag = 0x0b // router → shard: remote query/aggregate registration
	TagRegistered Tag = 0x0c // shard → router: str id (registration accepted or adopted)
	TagSnapshot   Tag = 0x0d // router → shard: str sourceID, i64 epoch (release + snapshot)
	TagRestore    Tag = 0x0e // router → shard: i64 epoch, u32 len, snapshot payload
	TagStateAck   Tag = 0x0f // shard → router: str sourceID, i64 resumeSeq, i64 epoch, u32 len, payload
)

// FeatCluster announces that this side accepts the cluster tags above.
// Servers advertise it unconditionally; the dkf-router requires it on
// every upstream connection and refuses to forward to a peer without it
// (0x02, retired, announced the one-update forward, which it misparses).
const FeatCluster byte = 0x20

// ForwardHead is a forward frame's length, tag and envelope.
const ForwardHead = 4 + 1 + 4 + 8

// Forward buffers one forward frame: the envelope (route index +
// topology epoch) then one route's update frames back to back as the
// source sent them — never re-encoded, copied once, into the buffer.
func (w *Writer) Forward(idx uint32, epoch int64, frames []byte) error {
	w.begin(TagForward)
	w.scratch = AppendU32(w.scratch, idx)
	w.scratch = AppendI64(w.scratch, epoch)
	return w.finish(frames)
}

// DecodeForward splits a forward payload into its envelope and (non-empty) frames.
func DecodeForward(p []byte) (idx uint32, epoch int64, frames []byte, err error) {
	if len(p) <= ForwardHead-5 {
		return 0, 0, nil, malformed(TagForward)
	}
	c := NewCursor(p)
	return c.U32(), c.I64(), p[ForwardHead-5:], nil
}

// NextForwarded splits the first frame off frames: ErrMalformed unless a whole update.
func NextForwarded(frames []byte) (frame, rest []byte, err error) {
	tag, _, rest, err := NextFrame(frames, len(frames))
	if err != nil || tag != TagUpdate {
		return nil, nil, malformed(TagForward)
	}
	return frames[:len(frames)-len(rest)], rest, nil
}

// ForwardAck buffers a cumulative per-route acknowledgement.
func (w *Writer) ForwardAck(idx uint32, seq int64) error {
	w.begin(TagForwardAck)
	w.scratch = AppendU32(w.scratch, idx)
	w.scratch = AppendI64(w.scratch, seq)
	return w.finish(nil)
}

// DecodeForwardAck parses a forward-ack payload.
func DecodeForwardAck(p []byte) (idx uint32, seq int64, err error) {
	c := NewCursor(p)
	idx, seq = c.U32(), c.I64()
	if !c.Done() {
		return 0, 0, malformed(TagForwardAck)
	}
	return idx, seq, nil
}

// Remote registration kinds carried by TagClusterReg.
const (
	RegPlain     byte = 0 // a single-source continuous query
	RegAggregate byte = 1 // a (partial) aggregate query
)

// ClusterQuery is a remotely registered single-source query.
type ClusterQuery struct {
	ID       string
	SourceID string
	Model    string
	Delta    float64
	F        float64
}

// ClusterAggregate is a remotely registered aggregate. Partial marks a
// shard-local partial whose answer is the exact-sum expansion (or
// local extremum) the router merges, rather than a finished scalar.
type ClusterAggregate struct {
	ID        string
	Func      string
	Model     string
	Delta     float64
	F         float64
	Partial   bool
	SourceIDs []string
}

// RegisterQuery buffers a plain remote registration.
func (w *Writer) RegisterQuery(q ClusterQuery) error {
	w.begin(TagClusterReg)
	w.scratch = append(w.scratch, RegPlain)
	w.str(q.ID)
	w.str(q.SourceID)
	w.str(q.Model)
	w.scratch = AppendF64(w.scratch, q.Delta)
	w.scratch = AppendF64(w.scratch, q.F)
	return w.finish(nil)
}

// RegisterAggregate buffers an aggregate remote registration.
func (w *Writer) RegisterAggregate(q ClusterAggregate) error {
	if len(q.SourceIDs) > math.MaxUint16 {
		return fmt.Errorf("wire: aggregate with %d sources exceeds %d", len(q.SourceIDs), math.MaxUint16)
	}
	w.begin(TagClusterReg)
	w.scratch = append(w.scratch, RegAggregate)
	w.str(q.ID)
	w.str(q.Func)
	w.str(q.Model)
	w.scratch = AppendF64(w.scratch, q.Delta)
	w.scratch = AppendF64(w.scratch, q.F)
	var flags byte
	if q.Partial {
		flags |= 1
	}
	w.scratch = append(w.scratch, flags)
	w.scratch = AppendU16(w.scratch, uint16(len(q.SourceIDs)))
	for _, src := range q.SourceIDs {
		w.str(src)
	}
	return w.finish(nil)
}

// DecodeClusterReg parses a remote registration payload. Exactly one
// of the returns is meaningful, selected by kind.
func DecodeClusterReg(p []byte) (kind byte, q ClusterQuery, agg ClusterAggregate, err error) {
	c := NewCursor(p)
	kind = c.U8()
	switch kind {
	case RegPlain:
		q = ClusterQuery{ID: string(c.Str()), SourceID: string(c.Str()), Model: string(c.Str()), Delta: c.F64(), F: c.F64()}
		if !c.Done() {
			return 0, ClusterQuery{}, ClusterAggregate{}, malformed(TagClusterReg)
		}
		return kind, q, ClusterAggregate{}, nil
	case RegAggregate:
		agg = ClusterAggregate{ID: string(c.Str()), Func: string(c.Str()), Model: string(c.Str()),
			Delta: c.F64(), F: c.F64(), Partial: c.U8()&1 != 0}
		n := int(c.U16())
		if !c.OK() || n > len(p) {
			return 0, ClusterQuery{}, ClusterAggregate{}, malformed(TagClusterReg)
		}
		agg.SourceIDs = make([]string, n)
		for i := range agg.SourceIDs {
			agg.SourceIDs[i] = string(c.Str())
		}
		if !c.Done() {
			return 0, ClusterQuery{}, ClusterAggregate{}, malformed(TagClusterReg)
		}
		return kind, ClusterQuery{}, agg, nil
	default:
		return 0, ClusterQuery{}, ClusterAggregate{}, malformed(TagClusterReg)
	}
}

// Registered buffers a registration acknowledgement.
func (w *Writer) Registered(id string) error {
	w.begin(TagRegistered)
	w.str(id)
	return w.finish(nil)
}

// Snapshot buffers a migration snapshot request: release sourceID at
// the given topology epoch and return its checkpoint state.
func (w *Writer) Snapshot(sourceID string, epoch int64) error {
	w.begin(TagSnapshot)
	w.str(sourceID)
	w.scratch = AppendI64(w.scratch, epoch)
	return w.finish(nil)
}

// DecodeSnapshot parses a snapshot request.
func DecodeSnapshot(p []byte) (sourceID string, epoch int64, err error) {
	c := NewCursor(p)
	id, epoch := c.Str(), c.I64()
	if !c.Done() || id == nil {
		return "", 0, malformed(TagSnapshot)
	}
	return string(id), epoch, nil
}

// Restore buffers a migration restore request carrying one stream's
// snapshot payload (as produced by the snapshot state-ack).
func (w *Writer) Restore(epoch int64, payload []byte) error {
	w.begin(TagRestore)
	w.scratch = AppendI64(w.scratch, epoch)
	w.scratch = AppendU32(w.scratch, uint32(len(payload)))
	w.scratch = append(w.scratch, payload...)
	return w.finish(nil)
}

// DecodeRestore parses a restore request. The payload aliases p.
func DecodeRestore(p []byte) (epoch int64, payload []byte, err error) {
	c := NewCursor(p)
	epoch, payload = c.I64(), c.Take(int(c.U32()))
	if !c.Done() || payload == nil {
		return 0, nil, malformed(TagRestore)
	}
	return epoch, payload, nil
}

// StateAck is the decoded reply to Snapshot and Restore requests.
// After a snapshot, Payload carries the released stream's checkpoint
// state; after a restore it is empty.
type StateAck struct {
	SourceID  string
	ResumeSeq int64
	Epoch     int64
	Payload   []byte
}

// WriteStateAck buffers a snapshot/restore acknowledgement.
func (w *Writer) WriteStateAck(a StateAck) error {
	w.begin(TagStateAck)
	w.str(a.SourceID)
	w.scratch = AppendI64(w.scratch, a.ResumeSeq)
	w.scratch = AppendI64(w.scratch, a.Epoch)
	w.scratch = AppendU32(w.scratch, uint32(len(a.Payload)))
	w.scratch = append(w.scratch, a.Payload...)
	return w.finish(nil)
}

// DecodeStateAck parses a snapshot/restore acknowledgement. The
// payload is copied: state acks are rare and callers retain them
// across reads.
func DecodeStateAck(p []byte) (StateAck, error) {
	c := NewCursor(p)
	id, resume, epoch, payload := c.Str(), c.I64(), c.I64(), c.Take(int(c.U32()))
	if !c.Done() || id == nil || payload == nil {
		return StateAck{}, malformed(TagStateAck)
	}
	return StateAck{SourceID: string(id), ResumeSeq: resume, Epoch: epoch, Payload: append([]byte(nil), payload...)}, nil
}
