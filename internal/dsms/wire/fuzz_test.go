package wire

import (
	"bytes"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/trace"
)

// FuzzFrameDecode drives arbitrary bytes through the frame reader and
// every payload decoder. All of them must fail cleanly on malformed
// input — errors, never panics — because both the TCP server and WAL
// replay hand them bytes from outside the process; and an update payload
// that decodes must encode again to its own bytes.
func FuzzFrameDecode(f *testing.F) {
	seed := func(build func(w *Writer) error) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, 0, 0)
		if err := build(w); err != nil {
			f.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x02})
	f.Add(seed(func(w *Writer) error { return w.Hello("sensor-a") }))
	f.Add(seed(func(w *Writer) error {
		return w.Install(Install{SourceID: "s", Model: "linear", Delta: 2.5, F: 1e-7, ResumeSeq: 41})
	}))
	f.Add(seed(func(w *Writer) error {
		return w.Update(&core.Update{SourceID: "s", Seq: 7, Time: 3.5, Values: []float64{1, 2}, Bootstrap: true}, nil)
	}))
	f.Add(seed(func(w *Writer) error { return w.Answer("q", []float64{1.5}) }))
	f.Add(seed(func(w *Writer) error { return w.Query("q", 12) }))
	f.Add(seed(func(w *Writer) error { return w.Ack(-3) }))
	f.Add(seed(func(w *Writer) error { return w.Error("boom") }))
	// Trailer-bearing updates: whole, cut inside the trailer, and the flag
	// bit with no trailer behind it; plus a frame under the retired
	// TagTrace tag, which no decoder owns any more.
	ev := trace.Event{
		TraceID: 17, At: 123456789, Kind: trace.KindDecision, Dec: trace.DecisionSend,
		Raw: 3.25, Value: 3.0, Pred: 1.5, Residual: 1.5, Delta: 0.5, NIS: 4.0,
	}
	traced := seed(func(w *Writer) error {
		return w.Update(&core.Update{SourceID: "s", Seq: 9, Time: 4.5, Values: []float64{1, 2}}, &ev)
	})
	f.Add(traced)
	for _, cut := range []int{1, evidenceLen / 2, evidenceLen} {
		short := append([]byte(nil), traced[:len(traced)-cut]...)
		short[0] -= byte(cut)
		f.Add(short)
	}
	f.Add(append([]byte{74, 0, 0, 0, 0x08}, make([]byte, 73)...))
	// v4 seqs the decoder refuses: overlong uvarints (0 in two bytes, 3 in
	// three) and a ten-byte one past math.MaxInt64.
	for _, seq := range [][]byte{{0x80, 0x00}, {0x83, 0x80, 0x00}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}} {
		frame := BeginFrame(nil, TagUpdate)
		frame, _ = AppendString(frame, "s")
		frame = AppendF64(append(append(frame, seq...), 0), 1)
		frame, _ = EndFrame(frame, 0)
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), 0, 0)
		var u core.Update
		for {
			tag, p, err := r.Next()
			if err != nil {
				return
			}
			// Try every decoder against every payload: a frame mislabeled
			// by a corrupted tag byte must still fail cleanly everywhere.
			_, _ = DecodeHello(p)
			_, _ = DecodeInstall(p)
			_ = r.DecodeUpdate(p, &u)
			// Whatever decodes as an update encodes again to its own bytes:
			// a WAL run record replays received frames through this decoder.
			if again, ok := reencode(t, p); ok && !bytes.Equal(again, p) {
				t.Fatalf("update payload %x decodes, but encodes again as %x", p, again)
			}
			_, _ = DecodeAck(p)
			_, _, _ = r.DecodeQuery(p)
			_, _, _ = DecodeAnswer(p)
			_, _ = DecodeError(p)
			if e := UpdateEvidence(p); e != nil {
				_ = e.Event(e.TraceID())
			}
			_ = tag
		}
	})
}
