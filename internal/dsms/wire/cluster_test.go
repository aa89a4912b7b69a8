package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"streamkf/internal/core"
)

// TestClusterFrameRoundTrip drives every cluster tag through a
// writer/reader pair and checks the decoded structures are identical
// to what was written — the router ↔ shard half of the protocol.
func TestClusterFrameRoundTrip(t *testing.T) {
	w, r, _ := pipe()

	// Forward: envelope + verbatim update payload.
	u := core.Update{SourceID: "node-7", Seq: 1<<33 + 5, Time: 99.25, Values: []float64{-3.5, math.Pi}}
	payload, err := AppendUpdate(nil, &u)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Forward(41, 3, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.ForwardAck(41, int64(u.Seq)); err != nil {
		t.Fatal(err)
	}
	q := ClusterQuery{ID: "q1", SourceID: "node-7", Model: "linear", Delta: 2.5, F: 0.125}
	if err := w.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	agg := ClusterAggregate{
		ID: "grid", Func: "sum", Model: "linear", Delta: 8, F: 0.5,
		Partial: true, SourceIDs: []string{"node-7", "node-8", "node-9"},
	}
	if err := w.RegisterAggregate(agg); err != nil {
		t.Fatal(err)
	}
	if err := w.Registered("grid"); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot("node-7", 4); err != nil {
		t.Fatal(err)
	}
	state := []byte{0x10, 0x20, 0x30, 0x00, 0xff}
	if err := w.Restore(4, state); err != nil {
		t.Fatal(err)
	}
	ack := StateAck{SourceID: "node-7", ResumeSeq: 1<<33 + 5, Epoch: 4, Payload: state}
	if err := w.WriteStateAck(ack); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, w)

	env, err := DecodeForward(next(t, r, TagForward))
	if err != nil {
		t.Fatal(err)
	}
	if env.Idx != 41 || env.Epoch != 3 {
		t.Fatalf("forward envelope = %+v, want idx 41 epoch 3", env)
	}
	if !bytes.Equal(env.Payload, payload) {
		t.Fatal("forwarded update payload not verbatim")
	}
	var got core.Update
	if err := DecodeUpdatePayload(env.Payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.SourceID != u.SourceID || got.Seq != u.Seq || !reflect.DeepEqual(got.Values, u.Values) {
		t.Fatalf("wrapped update = %+v, want %+v", got, u)
	}

	idx, seq, err := DecodeForwardAck(next(t, r, TagForwardAck))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 41 || seq != int64(u.Seq) {
		t.Fatalf("forward ack = (%d, %d), want (41, %d)", idx, seq, u.Seq)
	}

	kind, gq, _, err := DecodeClusterReg(next(t, r, TagClusterReg))
	if err != nil {
		t.Fatal(err)
	}
	if kind != RegPlain || gq != q {
		t.Fatalf("plain reg = kind %d %+v, want %+v", kind, gq, q)
	}

	kind, _, gagg, err := DecodeClusterReg(next(t, r, TagClusterReg))
	if err != nil {
		t.Fatal(err)
	}
	if kind != RegAggregate || !reflect.DeepEqual(gagg, agg) {
		t.Fatalf("aggregate reg = kind %d %+v, want %+v", kind, gagg, agg)
	}

	// Nothing decodes an acknowledgement's id: its tag is the answer.
	if c := NewCursor(next(t, r, TagRegistered)); string(c.Str()) != "grid" || !c.Done() {
		t.Fatal("registered payload is not the id")
	}

	src, epoch, err := DecodeSnapshot(next(t, r, TagSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	if src != "node-7" || epoch != 4 {
		t.Fatalf("snapshot = (%q, %d), want (node-7, 4)", src, epoch)
	}

	epoch, restored, err := DecodeRestore(next(t, r, TagRestore))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 || !bytes.Equal(restored, state) {
		t.Fatalf("restore = (%d, %x), want (4, %x)", epoch, restored, state)
	}

	gack, err := DecodeStateAck(next(t, r, TagStateAck))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gack, ack) {
		t.Fatalf("state ack = %+v, want %+v", gack, ack)
	}
}

// TestClusterDecodeMalformed feeds truncated or corrupt payloads to
// every cluster decoder; all must fail cleanly.
func TestClusterDecodeMalformed(t *testing.T) {
	if _, err := DecodeForward(make([]byte, 11)); err == nil {
		t.Error("short forward accepted")
	}
	if _, _, err := DecodeForwardAck(make([]byte, 13)); err == nil {
		t.Error("overlong forward ack accepted")
	}
	if _, _, _, err := DecodeClusterReg([]byte{9}); err == nil {
		t.Error("unknown registration kind accepted")
	}
	if _, _, _, err := DecodeClusterReg([]byte{RegPlain, 0xff}); err == nil {
		t.Error("truncated plain registration accepted")
	}
	if _, _, err := DecodeSnapshot([]byte{0, 1}); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, _, err := DecodeRestore([]byte{1, 2, 3}); err == nil {
		t.Error("truncated restore accepted")
	}
	if _, err := DecodeStateAck([]byte{0}); err == nil {
		t.Error("truncated state ack accepted")
	}
	// A restore whose declared payload length overruns the frame.
	var p []byte
	p = AppendI64(p, 4)
	p = AppendU32(p, 100)
	p = append(p, 1, 2, 3)
	if _, _, err := DecodeRestore(p); err == nil {
		t.Error("restore with overrun length accepted")
	}
}

// TestClusterTagNames pins the Tag.String names for the cluster range.
func TestClusterTagNames(t *testing.T) {
	want := map[Tag]string{
		TagForward:    "forward",
		TagForwardAck: "forward_ack",
		TagClusterReg: "cluster_reg",
		TagRegistered: "registered",
		TagSnapshot:   "snapshot",
		TagRestore:    "restore",
		TagStateAck:   "state_ack",
	}
	for tag, name := range want {
		if got := tag.String(); got != name {
			t.Errorf("Tag(%#x).String() = %q, want %q", byte(tag), got, name)
		}
	}
}
