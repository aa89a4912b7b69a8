package wire

import (
	"bytes"
	"errors"
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

	// Forward: the envelope, then a route's update frames verbatim — a run
	// of one, and a run of three.
	seq, _ := seqCase(t, 1<<33+5)
	us := []core.Update{
		{SourceID: "node-7", Seq: seq, Time: 99.25, Values: []float64{-3.5, math.Pi}},
		{SourceID: "node-7", Seq: seq + 1, Values: []float64{2}, Bootstrap: true},
		{SourceID: "node-7", Seq: seq + 9},
	}
	var frames []byte
	for i := range us {
		var err error
		if frames, err = AppendUpdateFrame(frames, &us[i]); err != nil {
			t.Fatal(err)
		}
	}
	one, _ := AppendUpdateFrame(nil, &us[0])
	runs := []struct {
		idx    uint32
		epoch  int64
		frames []byte
		us     []core.Update
	}{{41, 3, one, us[:1]}, {42, 1 << 40, frames, us}}
	for _, run := range runs {
		if err := w.Forward(run.idx, run.epoch, run.frames); err != nil {
			t.Fatal(err)
		}
	}
	u := us[0]
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

	for _, run := range runs {
		idx, epoch, frames, err := DecodeForward(next(t, r, TagForward))
		if err != nil {
			t.Fatal(err)
		}
		if idx != run.idx || epoch != run.epoch || !bytes.Equal(frames, run.frames) {
			t.Fatalf("forward = idx %d epoch %d, %d B of frames; want idx %d epoch %d, %d B verbatim",
				idx, epoch, len(frames), run.idx, run.epoch, len(run.frames))
		}
		for i, want := range run.us {
			f, rest, err := NextForwarded(frames)
			if err != nil {
				t.Fatal(err)
			}
			var got core.Update
			if err := DecodeUpdatePayload(f[5:], &got); err != nil {
				t.Fatal(err)
			}
			if len(f) != len(frames)-len(rest) || !bytes.Equal(f, frames[:len(f)]) {
				t.Fatalf("update %d of forward %d: a %d-byte frame, %d B left of %d", i, idx, len(f), len(rest), len(frames))
			}
			if got.SourceID != want.SourceID || got.Seq != want.Seq || got.Bootstrap != want.Bootstrap ||
				len(got.Values) != len(want.Values) || len(want.Values) > 0 && !reflect.DeepEqual(got.Values, want.Values) {
				t.Fatalf("update %d of forward %d = %+v, want %+v", i, idx, got, want)
			}
			frames = rest
		}
		if len(frames) != 0 {
			t.Fatalf("forward %d: %d B past its updates", idx, len(frames))
		}
	}

	idx, ackSeq, err := DecodeForwardAck(next(t, r, TagForwardAck))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 41 || ackSeq != int64(u.Seq) {
		t.Fatalf("forward ack = (%d, %d), want (41, %d)", idx, ackSeq, u.Seq)
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
	for n := 0; n <= 12; n++ { // an envelope cut short, or with no frame behind it
		if _, _, _, err := DecodeForward(make([]byte, n)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%d-byte forward: %v, want ErrMalformed", n, err)
		}
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

// TestForwardedFrames: a forward's update frames are walked one by one,
// and an inner frame that is cut short, overruns the forward, is empty or
// is not an update is ErrMalformed — what a shard hangs up on. A forward
// that would pass the writer's max frame is not written.
func TestForwardedFrames(t *testing.T) {
	u := core.Update{SourceID: "s", Seq: 3, Values: []float64{1}}
	good, err := AppendUpdateFrame(nil, &u)
	if err != nil {
		t.Fatal(err)
	}
	hello, _ := AppendHelloFrame(nil, "s")
	overrun := append([]byte(nil), good...)
	overrun[0]++
	for name, frames := range map[string][]byte{
		"cut in the header":   good[:4],
		"cut in the payload":  good[:len(good)-1],
		"length past the end": overrun,
		"empty frame":         {0, 0, 0, 0, byte(TagUpdate)},
		"hello":               hello,
		"update then hello":   append(append([]byte(nil), good...), hello...),
		"update then a cut":   append(append([]byte(nil), good...), good[:7]...),
	} {
		var err error
		for rest := frames; len(rest) > 0 && err == nil; {
			_, rest, err = NextForwarded(rest)
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, err)
		}
	}

	var buf bytes.Buffer
	w := NewWriter(&buf, 0, ForwardHead-4+2*len(good))
	var framed []int
	w.OnFrame = func(tag Tag, n int) { framed = append(framed, n) }
	two := append(append([]byte(nil), good...), good...)
	if err := w.Forward(1, 2, two); err != nil {
		t.Fatalf("a forward of exactly the max frame: %v", err)
	}
	var fse *FrameSizeError
	if err := w.Forward(1, 2, append(two, good[:1]...)); !errors.As(err, &fse) {
		t.Fatalf("a forward a byte past the max frame: %v, want a FrameSizeError", err)
	}
	mustFlush(t, w)
	if len(framed) != 1 || framed[0] != ForwardHead+len(two) || buf.Len() != framed[0] {
		t.Fatalf("framed %v, %d B buffered; want one %d-byte forward", framed, buf.Len(), ForwardHead+len(two))
	}
}
