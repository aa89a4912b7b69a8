package wire

import (
	"bytes"
	"errors"
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

	// Forwards: a run of one update frame, a run of three, and runs with a
	// frame cut short or a hello inside, which the shard refuses.
	one, _ := AppendUpdateFrame(nil, &core.Update{SourceID: "s", Seq: 4, Values: []float64{1}})
	three := append(append(append([]byte(nil), one...), one...), one...)
	hello, _ := AppendHelloFrame(nil, "s")
	for _, frames := range [][]byte{one, three, three[:len(three)-3], append(append([]byte(nil), one...), hello...)} {
		f.Add(seed(func(w *Writer) error { return w.Forward(2, 7, frames) }))
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
			// A forward's frames walk as the shard walks them, every update
			// through the one decoder, to the end or to ErrMalformed.
			if _, _, frames, err := DecodeForward(p); err == nil {
				for len(frames) > 0 {
					f, rest, err := NextForwarded(frames)
					if err != nil {
						if !errors.Is(err, ErrMalformed) {
							t.Fatalf("inner frame refused with %v, want ErrMalformed", err)
						}
						break
					}
					if len(f) < 6 || len(f)+len(rest) != len(frames) {
						t.Fatalf("a %d-byte inner frame with %d B left of %d", len(f), len(rest), len(frames))
					}
					_ = r.DecodeUpdate(f[5:], &u)
					frames = rest
				}
			}
			_ = tag
		}
	})
}
