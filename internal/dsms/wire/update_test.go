package wire

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/trace"
)

// reencode decodes update payload p and encodes it again, evidence
// included; ok is false when p does not decode.
func reencode(t *testing.T, p []byte) (again []byte, ok bool) {
	t.Helper()
	var u core.Update
	if DecodeUpdatePayload(p, &u) != nil {
		return nil, false
	}
	var ev *trace.Event
	if e := UpdateEvidence(p); e != nil {
		event := e.Event(int64(u.Seq))
		ev = &event
	}
	again, err := AppendTracedUpdate(nil, &u, ev)
	if err != nil {
		t.Fatalf("re-encoding %x: %v", p, err)
	}
	return again, true
}

// TestUpdateCodecIdentity: decoding what the encoder wrote gives back the
// update and its evidence, and every payload the decoder accepts encodes
// again to its own bytes — over the seq's uvarint lengths, zero to three
// values, NaN payloads and both flags, and every one-byte mutation, cut
// and extension of those payloads. A run record of the WAL logs received
// frames verbatim and replays them through this decoder, so it relies on
// both directions.
func TestUpdateCodecIdentity(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001)
	ev := testEvidence(0)
	ev.NIS = nan
	var payloads [][]byte
	for _, wide := range []int64{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<35 + 3, math.MaxInt64} {
		seq, ok := seqCase(t, wide)
		for n := 0; ok && n <= 3; n++ {
			for _, traced := range []bool{false, true} {
				u := core.Update{SourceID: "src-00000", Seq: seq, Values: []float64{-0.0, nan, math.Inf(1)}[:n], Bootstrap: n == 1}
				var e *trace.Event
				if traced {
					e = &ev
				}
				p, err := AppendTracedUpdate(nil, &u, e)
				if err != nil {
					t.Fatal(err)
				}
				var got core.Update
				if err := DecodeUpdatePayload(p, &got); err != nil {
					t.Fatalf("seq %d, %d values, traced %v: %v", seq, n, traced, err)
				}
				if got.SourceID != u.SourceID || got.Seq != u.Seq || got.Bootstrap != u.Bootstrap || len(got.Values) != n {
					t.Fatalf("decoded %+v, want %+v", got, u)
				}
				for i, v := range u.Values {
					if math.Float64bits(got.Values[i]) != math.Float64bits(v) {
						t.Fatalf("value %d decoded %x, want %x", i, math.Float64bits(got.Values[i]), math.Float64bits(v))
					}
				}
				if e := UpdateEvidence(p); (e != nil) != traced || traced && (e.TraceID() != ev.TraceID || math.Float64bits(e.Event(0).NIS) != math.Float64bits(nan)) {
					t.Fatalf("seq %d, %d values: evidence %v, traced %v", seq, n, e, traced)
				}
				payloads = append(payloads, p)
			}
		}
	}
	accepted := 0
	check := func(p []byte) {
		if again, ok := reencode(t, p); ok {
			accepted++
			if !bytes.Equal(again, p) {
				t.Fatalf("payload %x decodes, but encodes again as %x", p, again)
			}
		}
	}
	for _, p := range payloads {
		for i := range p {
			m := append([]byte(nil), p...)
			for b := 0; b < 256; b++ {
				m[i] = byte(b)
				check(m)
			}
		}
		for cut := 0; cut < len(p); cut++ {
			check(p[:cut])
		}
		for extra := 1; extra <= 9; extra++ {
			check(append(append([]byte(nil), p...), make([]byte, extra)...))
		}
	}
	if accepted < len(payloads) {
		t.Fatalf("only %d payloads accepted of at least %d", accepted, len(payloads))
	}
}

// TestUpdateSeqUvarint: the seq is a canonical uvarint no larger than
// math.MaxInt64, and than math.MaxInt32 on a 32-bit build. An overlong
// encoding of any value, a ten-byte one, a seq cut short and a negative
// seq at the encoder are all refused.
func TestUpdateSeqUvarint(t *testing.T) {
	payload := func(seq ...byte) []byte {
		p, _ := AppendString(nil, "s")
		p = append(append(p, seq...), 0) // flags
		return AppendF64(p, 1)
	}
	var u core.Update
	for _, c := range []struct {
		seq  []byte
		want int64 // -1: refused
	}{
		{[]byte{0x00}, 0},
		{[]byte{0x7f}, 127},
		{[]byte{0x80, 0x01}, 128},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0x07}, math.MaxInt32},
		{[]byte{0x80, 0x80, 0x80, 0x80, 0x08}, math.MaxInt32 + 1},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, math.MaxInt64},
		{[]byte{0x80, 0x00}, -1},       // 0 in two bytes
		{[]byte{0x83, 0x80, 0x00}, -1}, // 3 in three bytes
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x00}, -1}, // MaxInt64 in ten bytes
		{[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, -1}, // 1<<63
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, -1}, // MaxUint64
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, -1},
	} {
		err := DecodeUpdatePayload(payload(c.seq...), &u)
		if _, fits := seqCase(t, c.want); !fits {
			c.want = -1 // refused where it does not fit an int
		}
		if c.want < 0 && !errors.Is(err, ErrMalformed) {
			t.Errorf("seq bytes %x: %v, want ErrMalformed", c.seq, err)
		}
		if c.want >= 0 && (err != nil || int64(u.Seq) != c.want) {
			t.Errorf("seq bytes %x: seq %d, %v; want %d", c.seq, u.Seq, err, c.want)
		}
	}
	cut := payload(0x80, 0x01)[:4] // id, then the seq's first byte
	if err := DecodeUpdatePayload(cut, &u); !errors.Is(err, ErrMalformed) {
		t.Errorf("seq cut short: %v, want ErrMalformed", err)
	}
	if _, err := AppendUpdate(nil, &core.Update{SourceID: "s", Seq: -1, Values: []float64{1}}); err == nil {
		t.Error("a negative seq encoded")
	}
	unknown := payload(0x05)
	unknown[4] = 0x04 // a flag bit no trailer is defined for
	if err := DecodeUpdatePayload(unknown, &u); !errors.Is(err, ErrMalformed) {
		t.Errorf("unknown flag bit: %v, want ErrMalformed", err)
	}
}

// TestUpdateFrameBytes pins an update frame's size for the benchmark's two
// source ids. The harness sizes a seq-0 frame (23 and 26 bytes), but the
// seq is a uvarint, so a live frame grows a byte at seq 128, 16,384 and
// 2,097,152. A udp_fanin stream (src-00000) stays below 16,384 (about 540
// saturate readings per stream), so its largest frame is 27 bytes. A
// tcp_durable_dense or routed_rw stream (load-0) is 25 bytes at 1.3 M
// readings, where two load connections leave it, and 26 past 2,097,151,
// where one connection takes all the readings.
func TestUpdateFrameBytes(t *testing.T) {
	for _, c := range []struct {
		id   string
		seq  int
		want int
	}{
		{"load-0", 0, 23}, {"load-0", 127, 23}, {"load-0", 128, 24}, {"load-0", 16384, 25},
		{"load-0", 1_300_000, 25}, {"load-0", 1<<21 - 1, 25}, {"load-0", 1 << 21, 26},
		{"src-00000", 0, 26}, {"src-00000", 540, 27}, {"src-00000", 16383, 27},
	} {
		b, err := AppendUpdateFrame(nil, &core.Update{SourceID: c.id, Seq: c.seq, Time: float64(c.seq), Values: []float64{0}})
		if err != nil || len(b) != c.want {
			t.Errorf("%s at seq %d: %d-byte frame, %v; want %d", c.id, c.seq, len(b), err, c.want)
		}
	}
}

// seqCase returns seq as a core.Update seq, an int, and whether it fits
// one. On a 32-bit build a seq past 2^31−1 does not (a 32-bit build
// carries at most 2^31 readings a stream, DESIGN §8): a case that needs
// one is skipped there, and a test that goes on uses 2^30 in its place.
func seqCase(t *testing.T, seq int64) (int, bool) {
	t.Helper()
	if seq > math.MaxInt {
		t.Logf("seq %d does not fit core.Update.Seq, a %d-bit int here", seq, strconv.IntSize)
		return 1 << 30, false
	}
	return int(seq), true
}
