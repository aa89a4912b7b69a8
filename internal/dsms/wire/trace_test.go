package wire

import (
	"errors"
	"testing"

	"streamkf/internal/trace"
)

// TestTraceRoundTrip covers both lengths of the one TagTrace form
// through the one decoder: the 73-byte payload a source writes and the
// 101-byte payload a router writes with its hop record appended.
func TestTraceRoundTrip(t *testing.T) {
	d := trace.DecisionInfo{
		TraceID: 17, Seq: 9, Decision: trace.DecisionSend, At: 123_456_789,
		Raw: 3.25, Smoothed: 3.0, Pred: 1.5, Residual: 1.5, Delta: 0.5, NIS: 4.0,
	}
	hop := TraceHop{Idx: 3, Epoch: 7, RxUnixNs: 1_000_000, TxUnixNs: 2_000_000}

	w, r, _ := pipe()
	if err := w.Trace(&d, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Trace(&d, &hop); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, w)

	got, gotHop, hasHop, err := DecodeTrace(next(t, r, TagTrace))
	if err != nil || hasHop || got != d || gotHop != (TraceHop{}) {
		t.Fatalf("source form = %+v hop=%v/%+v, %v; want %+v", got, hasHop, gotHop, err, d)
	}
	got, gotHop, hasHop, err = DecodeTrace(next(t, r, TagTrace))
	if err != nil || !hasHop || got != d || gotHop != hop {
		t.Fatalf("hop form = %+v hop=%v/%+v, %v; want %+v %+v", got, hasHop, gotHop, err, d, hop)
	}
}

// TestTraceLengthsExhaustive walks every payload length around the
// form: 73 (no hop) and 101 (hop suffix) are the only ones that
// decode; the retired 65-byte payload and everything else is
// ErrMalformed.
func TestTraceLengthsExhaustive(t *testing.T) {
	for size := 0; size <= 110; size++ {
		_, _, hasHop, err := DecodeTrace(make([]byte, size))
		switch size {
		case 73, 101:
			if err != nil || hasHop != (size == 101) {
				t.Errorf("DecodeTrace(%d bytes) = hop %v, %v; want hop %v, nil", size, hasHop, err, size == 101)
			}
		default:
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("DecodeTrace(%d bytes) = %v, want ErrMalformed", size, err)
			}
		}
	}
}
