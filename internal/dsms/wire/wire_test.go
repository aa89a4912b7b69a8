package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"unsafe"

	"streamkf/internal/core"
)

// pipe builds a connected Writer/Reader pair over an in-memory buffer.
func pipe() (*Writer, *Reader, *bytes.Buffer) {
	var buf bytes.Buffer
	return NewWriter(&buf, 0, 0), NewReader(&buf, 0, 0), &buf
}

func mustFlush(t *testing.T, w *Writer) {
	t.Helper()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func next(t *testing.T, r *Reader, want Tag) []byte {
	t.Helper()
	tag, p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tag != want {
		t.Fatalf("tag = %v, want %v", tag, want)
	}
	return p
}

func TestFrameRoundTrip(t *testing.T) {
	w, r, _ := pipe()

	if err := w.Hello("sensor-a"); err != nil {
		t.Fatal(err)
	}
	if err := w.Install(Install{SourceID: "sensor-a", Model: "linear2d", Delta: 2.5, F: 1e-7, ResumeSeq: 314}); err != nil {
		t.Fatal(err)
	}
	wide, _ := seqCase(t, 1<<40)
	u := core.Update{SourceID: "sensor-a", Seq: wide, Time: 12.75, Values: []float64{1.5, -2.25, math.Pi}, Bootstrap: true}
	if err := w.Update(&u, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Ack(-9); err != nil {
		t.Fatal(err)
	}
	if err := w.Query("q1", 42); err != nil {
		t.Fatal(err)
	}
	if err := w.Answer("q1", []float64{3.5, 4.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Error("boom"); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, w)

	if id, err := DecodeHello(next(t, r, TagHello)); err != nil || id != "sensor-a" {
		t.Fatalf("hello = %q, %v", id, err)
	}
	inst, err := DecodeInstall(next(t, r, TagInstall))
	if err != nil || inst != (Install{SourceID: "sensor-a", Model: "linear2d", Delta: 2.5, F: 1e-7, ResumeSeq: 314}) {
		t.Fatalf("install = %+v, %v", inst, err)
	}
	var got core.Update
	if err := r.DecodeUpdate(next(t, r, TagUpdate), &got); err != nil {
		t.Fatal(err)
	}
	if got.SourceID != u.SourceID || got.Seq != u.Seq || got.Bootstrap != u.Bootstrap {
		t.Fatalf("update = %+v, want %+v", got, u)
	}
	for i, v := range u.Values {
		if got.Values[i] != v {
			t.Fatalf("update values = %v, want %v", got.Values, u.Values)
		}
	}
	if seq, err := DecodeAck(next(t, r, TagAck)); err != nil || seq != -9 {
		t.Fatalf("ack = %d, %v", seq, err)
	}
	qid, seq, err := r.DecodeQuery(next(t, r, TagQuery))
	if err != nil || qid != "q1" || seq != 42 {
		t.Fatalf("query = %q@%d, %v", qid, seq, err)
	}
	aid, vals, err := DecodeAnswer(next(t, r, TagAnswer))
	if err != nil || aid != "q1" || len(vals) != 2 || vals[0] != 3.5 || vals[1] != 4.5 {
		t.Fatalf("answer = %q %v, %v", aid, vals, err)
	}
	if msg, err := DecodeError(next(t, r, TagError)); err != nil || msg != "boom" {
		t.Fatalf("error = %q, %v", msg, err)
	}
	// Stream fully consumed: a clean EOF at the frame boundary.
	if _, _, err := r.Next(); !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("EOF at boundary = %v, want core.ErrPeerClosed", err)
	}
}

// repeatReader replays one encoded frame forever, so decoding can run an
// arbitrary number of steady-state iterations.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

func TestUpdateEncodeDecodeZeroAlloc(t *testing.T) {
	u := core.Update{SourceID: "sensor-a", Seq: 7, Time: 7, Values: []float64{1, 2}}

	w := NewWriter(io.Discard, 0, 0)
	// Warm the scratch buffer, then require allocation-free encoding.
	if err := w.Update(&u, nil); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, w)
	if n := testing.AllocsPerRun(1000, func() {
		u.Seq++
		if err := w.Update(&u, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("update encode allocates %v/op, want 0", n)
	}

	var buf bytes.Buffer
	wb := NewWriter(&buf, 0, 0)
	if err := wb.Update(&u, nil); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, wb)
	r := NewReader(&repeatReader{data: buf.Bytes()}, 0, 0)
	var got core.Update
	// Warm the payload buffer, Values slice, and intern cache.
	if err := r.DecodeUpdate(mustNext(t, r), &got); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := r.DecodeUpdate(mustNext(t, r), &got); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("update decode allocates %v/op, want 0", n)
	}
	if got.SourceID != u.SourceID || len(got.Values) != 2 {
		t.Fatalf("decoded %+v", got)
	}
}

func mustNext(t *testing.T, r *Reader) []byte {
	t.Helper()
	tag, p, err := r.Next()
	if err != nil || tag != TagUpdate {
		t.Fatalf("Next = %v, %v", tag, err)
	}
	return p
}

func TestPreamble(t *testing.T) {
	// readPreamble reads a preamble off a fresh Reader over src.
	readPreamble := func(src io.Reader) (byte, byte, error) { return NewReader(src, 0, 0).ReadPreamble() }
	ver, _, err := readPreamble(bytes.NewReader(AppendPreamble(nil, Version, 0)))
	if err != nil || ver != Version {
		t.Fatalf("preamble = %d, %v", ver, err)
	}

	if _, _, err := readPreamble(strings.NewReader("GET / HTTP/1.1\r\n")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic = %v, want ErrBadMagic", err)
	}
	if _, _, err := readPreamble(strings.NewReader("")); !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("empty preamble = %v, want core.ErrPeerClosed", err)
	}
	if _, _, err := readPreamble(strings.NewReader("DKF")); !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("partial preamble = %v, want core.ErrTruncated", err)
	}

	if err := CheckVersion(Version); err != nil {
		t.Fatal(err)
	}
	err = CheckVersion(99)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != 99 || !strings.Contains(err.Error(), "unsupported protocol version 99") {
		t.Fatalf("CheckVersion(99) = %v", err)
	}
}

func TestPreambleFeatures(t *testing.T) {
	// A feature-advertising preamble round-trips version and bits.
	preamble := func(features byte) *Reader {
		return NewReader(bytes.NewReader(AppendPreamble(nil, Version, features)), 0, 0)
	}
	ver, feats, err := preamble(FeatEvidence).ReadPreamble()
	if err != nil || ver != Version || feats != FeatEvidence {
		t.Fatalf("preamble = v%d feats %#02x, %v; want v%d feats %#02x", ver, feats, err, Version, FeatEvidence)
	}

	// A pre-tracing peer writes a zero feature byte: same wire shape,
	// read by the feature-aware reader as "no features".
	if _, feats, err = preamble(0).ReadPreamble(); err != nil || feats != 0 {
		t.Fatalf("legacy preamble feats = %#02x, %v; want 0", feats, err)
	}

	// And the legacy reader ignores whatever a feature-advertising peer
	// wrote in byte 5 — the compat contract both directions rely on.
	if ver, _, err = preamble(0xff).ReadPreamble(); err != nil || ver != Version {
		t.Fatalf("legacy read of feature preamble = v%d, %v", ver, err)
	}

	// The buffered Writer/Reader pair speaks the same shape.
	var buf bytes.Buffer
	w := NewWriter(&buf, 0, 0)
	if err := w.WritePreamble(Version, FeatEvidence); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, w)
	r := NewReader(&buf, 0, 0)
	if ver, feats, err = r.ReadPreamble(); err != nil || ver != Version || feats != FeatEvidence {
		t.Fatalf("buffered preamble = v%d feats %#02x, %v", ver, feats, err)
	}
}

func TestNextTruncation(t *testing.T) {
	// Header promises 100 payload bytes; only a few arrive.
	frame := []byte{101, 0, 0, 0, byte(TagUpdate), 1, 2, 3}
	r := NewReader(bytes.NewReader(frame), 0, 0)
	if _, _, err := r.Next(); !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("truncated payload = %v, want core.ErrTruncated", err)
	}

	// A partial header is also a truncation...
	r = NewReader(bytes.NewReader([]byte{5, 0}), 0, 0)
	if _, _, err := r.Next(); !errors.Is(err, core.ErrTruncated) {
		t.Fatalf("partial header = %v, want core.ErrTruncated", err)
	}

	// ...but a clean EOF before any header byte is a peer close.
	r = NewReader(bytes.NewReader(nil), 0, 0)
	if _, _, err := r.Next(); !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("clean EOF = %v, want core.ErrPeerClosed", err)
	}
}

func TestNextRejectsOversizedFrame(t *testing.T) {
	var hdr [5]byte
	hdr[0] = 0xff
	hdr[1] = 0xff
	hdr[2] = 0xff // 16 MiB and change
	hdr[4] = byte(TagUpdate)
	r := NewReader(bytes.NewReader(hdr[:]), 0, 0)
	_, _, err := r.Next()
	var fse *FrameSizeError
	if !errors.As(err, &fse) || fse.Max != DefaultMaxFrame {
		t.Fatalf("oversized frame = %v, want FrameSizeError", err)
	}
	// The limit is configurable.
	r = NewReader(bytes.NewReader([]byte{200, 0, 0, 0, byte(TagUpdate)}), 0, 64)
	if _, _, err := r.Next(); !errors.As(err, &fse) || fse.Max != 64 {
		t.Fatalf("oversized frame vs custom limit = %v", err)
	}
}

func TestNextRejectsZeroLengthFrame(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0, 0, 0, 0, byte(TagUpdate)}), 0, 0)
	if _, _, err := r.Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-length frame = %v, want ErrMalformed", err)
	}
}

func TestWriterRejectsOverlongStrings(t *testing.T) {
	w := NewWriter(io.Discard, 0, 0)
	long := strings.Repeat("x", math.MaxUint16+1)
	if err := w.Hello(long); err == nil {
		t.Fatal("overlong hello accepted")
	}
	u := core.Update{SourceID: long, Seq: 1, Values: []float64{1}}
	if err := w.Update(&u, nil); err == nil {
		t.Fatal("overlong update source id accepted")
	}
	// Error messages are truncated, never rejected.
	if err := w.Error(long); err != nil {
		t.Fatalf("overlong error message rejected: %v", err)
	}
}

func TestWriterRejectsOversizedFrame(t *testing.T) {
	w := NewWriter(io.Discard, 0, 128)
	u := core.Update{SourceID: "s", Seq: 1, Values: make([]float64, 100)}
	err := w.Update(&u, nil)
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("oversized update = %v, want FrameSizeError", err)
	}
}

func TestDecodeMalformedPayloads(t *testing.T) {
	var r Reader
	var u core.Update
	cases := []struct {
		name string
		err  error
	}{
		{"hello", func() error { _, err := DecodeHello([]byte{9, 0, 'x'}); return err }()},
		{"install", func() error { _, err := DecodeInstall([]byte{1, 0, 'a'}); return err }()},
		{"update", r.DecodeUpdate([]byte{1, 0, 'a', 0}, &u)},
		{"ack", func() error { _, err := DecodeAck([]byte{1, 2}); return err }()},
		{"query", func() error { _, _, err := r.DecodeQuery([]byte{2, 0, 'q'}); return err }()},
		{"answer", func() error { _, _, err := DecodeAnswer([]byte{1, 0, 'q', 9, 0}); return err }()},
		{"error", func() error { _, err := DecodeError([]byte{5, 0, 'x'}); return err }()},
		{"trailing", func() error { _, err := DecodeAck(append(make([]byte, 8), 0xff)); return err }()},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", c.name, c.err)
		}
	}
}

func TestInternCacheReusesIDs(t *testing.T) {
	w, r, _ := pipe()
	u := core.Update{SourceID: "sensor-a", Seq: 1, Values: []float64{1}}
	for i := 0; i < 2; i++ {
		u.Seq = i
		if err := w.Update(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustFlush(t, w)
	var a, b core.Update
	if err := r.DecodeUpdate(mustNext(t, r), &a); err != nil {
		t.Fatal(err)
	}
	id1 := a.SourceID
	if err := r.DecodeUpdate(mustNext(t, r), &b); err != nil {
		t.Fatal(err)
	}
	// Same backing string, not merely equal content.
	if unsafe.StringData(id1) != unsafe.StringData(b.SourceID) {
		t.Fatal("repeated source id was not interned")
	}
}

// TestUpdateHandleNeverOnTheWire pins that Update.Handle is receiver-side
// only: encoders ignore it, and every decoder clears whatever the target
// held, so nothing off the wire can name a stream by index.
func TestUpdateHandleNeverOnTheWire(t *testing.T) {
	u := core.Update{SourceID: "src", Seq: 7, Time: 7, Values: []float64{1.5}}
	plain, err := AppendUpdate(nil, &u)
	if err != nil {
		t.Fatal(err)
	}
	u.Handle = 42
	withHandle, err := AppendUpdate(nil, &u)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, withHandle) {
		t.Fatal("Handle changed the encoded update")
	}
	got := core.Update{Handle: 99}
	if err := DecodeUpdateInto(withHandle, &got, func(b []byte) string { return string(b) }); err != nil {
		t.Fatal(err)
	}
	if got.Handle != 0 || got.SourceID != "src" || got.Seq != 7 {
		t.Fatalf("decoded %+v, want the update with Handle 0", got)
	}
	got.Handle = 99
	if err := DecodeUpdatePayload(withHandle, &got); err != nil || got.Handle != 0 {
		t.Fatalf("DecodeUpdatePayload left Handle %d (err %v), want 0", got.Handle, err)
	}
}

// TestReaderReadyAllocs: Ready, called at the end of every run, answers
// from the buffered bytes alone without allocating — on an empty buffer,
// a partial header, a partial frame and a whole frame.
func TestReaderReadyAllocs(t *testing.T) {
	frame, err := AppendUpdateFrame(nil, &core.Update{SourceID: "s", Seq: 3, Values: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tail []byte // buffered behind the frame Next returns
		want bool
	}{
		{"empty buffer", nil, false},
		{"partial header", frame[:3], false},
		{"partial frame", frame[:len(frame)-1], false},
		{"whole frame", frame, true},
	} {
		r := NewReader(bytes.NewReader(append(append([]byte(nil), frame...), tc.tail...)), 0, 0)
		if _, _, err := r.Next(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var tag Tag
		var ok bool
		if allocs := testing.AllocsPerRun(100, func() { tag, ok = r.Ready() }); allocs != 0 {
			t.Errorf("%s: Ready allocates %v", tc.name, allocs)
		}
		if ok != tc.want || ok && tag != TagUpdate {
			t.Errorf("%s: Ready = %v, %v; want %v", tc.name, tag, ok, tc.want)
		}
	}
}
