package wire

import (
	"bytes"
	"errors"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/trace"
)

// testEvidence is a decision event with every trailer field set; seq is
// the update's own.
func testEvidence(seq int64) trace.Event {
	return trace.Event{
		TraceID: 17, Seq: seq, At: 123_456_789, Kind: trace.KindDecision, Dec: trace.DecisionSend,
		Raw: 3.25, Value: 3.0, Pred: 1.5, Residual: 1.5, Delta: 0.5, NIS: 4.0,
	}
}

// TestTraceRoundTrip sends an update with and without its evidence
// trailer through the one codec: both decode to the same update, the
// traced one yields the event it was built from, and without its trailer
// (and the flag bit) it is byte for byte the untraced payload — what the
// WAL logs.
func TestTraceRoundTrip(t *testing.T) {
	u := core.Update{SourceID: "sensor-a", Seq: 9, Time: 4.5, Values: []float64{3, -1}, Bootstrap: true}
	ev := testEvidence(int64(u.Seq))

	w, r, _ := pipe()
	if err := w.Update(&u, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Update(&u, &ev); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, w)

	plain := append([]byte(nil), next(t, r, TagUpdate)...)
	traced := next(t, r, TagUpdate)
	if len(traced) != len(plain)+evidenceLen {
		t.Fatalf("traced payload is %d bytes, plain %d: trailer is not %d", len(traced), len(plain), evidenceLen)
	}
	for _, p := range [][]byte{plain, traced} {
		var got core.Update
		if err := r.DecodeUpdate(p, &got); err != nil {
			t.Fatal(err)
		}
		if got.SourceID != u.SourceID || got.Seq != u.Seq || !got.Bootstrap || len(got.Values) != 2 || got.Values[1] != -1 {
			t.Fatalf("decoded %+v, want %+v", got, u)
		}
	}
	if UpdateEvidence(plain) != nil {
		t.Fatal("an untraced payload yielded evidence")
	}
	e := UpdateEvidence(traced)
	if e == nil {
		t.Fatal("a traced payload yielded no evidence")
	}
	if got := e.Event(int64(u.Seq)); got != ev || e.TraceID() != ev.TraceID {
		t.Fatalf("evidence = %+v (trace id %d), want %+v", got, e.TraceID(), ev)
	}
	stripped := append([]byte(nil), traced[:len(plain)]...)
	stripped[2+len(u.SourceID)+1] &^= flagEvidence // seq 9 is one uvarint byte
	if !bytes.Equal(stripped, plain) {
		t.Fatal("a traced payload is not the untraced one plus flag bit and trailer")
	}
}

// TestTraceLengthsExhaustive walks every trailing length behind one
// value's eight bytes: a payload decodes if and only if what is left after the flagged
// trailer is a whole number of f64s, into one value more per eight bytes,
// and UpdateEvidence finds a trailer exactly when the flag bit is set and
// the payload decodes — for the reader's decoder and the standalone one
// (the UDP reader, WAL replay) alike. Anything else is ErrMalformed.
func TestTraceLengthsExhaustive(t *testing.T) {
	u := core.Update{SourceID: "s", Seq: 3, Values: []float64{1}}
	ev := testEvidence(3)
	traced, err := AppendTracedUpdate(nil, &u, &ev)
	if err != nil {
		t.Fatal(err)
	}
	body := len(traced) - evidenceLen
	flagsAt := 2 + len(u.SourceID) + 1 // seq 3 is one uvarint byte
	var r Reader
	for _, flagged := range []bool{false, true} {
		for size := 0; size <= evidenceLen+3*8; size++ {
			p := append(append([]byte(nil), traced[:body]...), make([]byte, size)...)
			if !flagged {
				p[flagsAt] &^= flagEvidence
			}
			extra := size
			if flagged {
				extra -= evidenceLen
			}
			want := extra >= -8 && extra%8 == 0 // the one value's 8 bytes may be all there is
			var got core.Update
			for name, err := range map[string]error{"Reader.DecodeUpdate": r.DecodeUpdate(p, &got), "DecodeUpdatePayload": DecodeUpdatePayload(p, &got)} {
				if want && (err != nil || got.Seq != u.Seq || len(got.Values) != 1+extra/8) {
					t.Errorf("%s(flag %v, %d trailing bytes) = %d values, %v; want %d values", name, flagged, size, len(got.Values), err, 1+extra/8)
				}
				if !want && !errors.Is(err, ErrMalformed) {
					t.Errorf("%s(flag %v, %d trailing bytes) = %v, want ErrMalformed", name, flagged, size, err)
				}
			}
			if has := UpdateEvidence(p) != nil; has != (want && flagged) {
				t.Errorf("UpdateEvidence(flag %v, %d trailing bytes) found a trailer: %v", flagged, size, has)
			}
		}
	}
	// Short of the flags byte there is nothing to find, and no panic.
	for size := 0; size < body; size++ {
		if UpdateEvidence(traced[:size]) != nil {
			t.Errorf("UpdateEvidence of a %d-byte prefix found a trailer", size)
		}
	}
}
