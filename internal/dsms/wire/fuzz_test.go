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
// replay hand them bytes from outside the process.
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
		return w.Update(&core.Update{SourceID: "s", Seq: 7, Time: 3.5, Values: []float64{1, 2}, Bootstrap: true})
	}))
	f.Add(seed(func(w *Writer) error { return w.Answer("q", []float64{1.5}) }))
	f.Add(seed(func(w *Writer) error { return w.Query("q", 12) }))
	f.Add(seed(func(w *Writer) error { return w.Ack(-3) }))
	f.Add(seed(func(w *Writer) error { return w.Error("boom") }))
	// The one TagTrace form at its two lengths (73 without the hop
	// suffix, 101 with), plus the retired 65-byte payload, which must
	// decode as malformed like any other length.
	d := trace.DecisionInfo{
		TraceID: 17, Seq: 9, Decision: trace.DecisionSend, At: 123456789,
		Raw: 3.25, Smoothed: 3.0, Pred: 1.5, Residual: 1.5, Delta: 0.5, NIS: 4.0,
	}
	f.Add(seed(func(w *Writer) error { return w.Trace(&d, nil) }))
	f.Add(seed(func(w *Writer) error {
		return w.Trace(&d, &TraceHop{Idx: 3, Epoch: 7, RxUnixNs: 1000, TxUnixNs: 2000})
	}))
	f.Add(append([]byte{66, 0, 0, 0, byte(TagTrace)}, make([]byte, 65)...))

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
			_ = DecodeUpdatePayload(p, &u)
			_, _ = DecodeAck(p)
			_, _, _ = r.DecodeQuery(p)
			_, _, _ = DecodeAnswer(p)
			_, _ = DecodeError(p)
			_, _, _, _ = DecodeTrace(p)
			_ = tag
		}
	})
}
