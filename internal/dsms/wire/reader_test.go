package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"streamkf/internal/core"
)

// shortReader returns reads of random length: half of them the whole of
// p, so that they fill the reader's buffer, the rest 1 to len(p) bytes.
type shortReader struct {
	src []byte
	rng *rand.Rand
}

func (s *shortReader) Read(p []byte) (int, error) {
	if len(s.src) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if s.rng.Intn(2) == 0 {
		n = 1 + s.rng.Intn(len(p))
	}
	n = copy(p, s.src[:min(n, len(s.src))])
	s.src = s.src[n:]
	return n, nil
}

// mixedStream frames a burst of update and forward frames with queries
// among them and answers larger than the first buffer (16 KB) and than a
// grown one (80 KB).
func mixedStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 0, 0)
	mid, big := make([]float64, 2000), make([]float64, 10000)
	for i := 0; i < 20000; i++ {
		u := core.Update{SourceID: "dense", Seq: i, Values: []float64{float64(i) / 3}}
		var err error
		switch {
		case i%5000 == 4999:
			err = w.Answer("q-big", big)
		case i%3001 == 3000:
			err = w.Answer("q-mid", mid)
		case i%97 == 0:
			err = w.Query("q", int64(i))
		case i%3 == 0: // a forward of a run of one to four update frames
			var f []byte
			for k := 0; k <= i%4 && err == nil; k++ {
				f, err = AppendUpdateFrame(f, &u)
			}
			if err == nil {
				err = w.Forward(uint32(i%7), 1, f)
			}
		default:
			err = w.Update(&u, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	mustFlush(t, w)
	return buf.Bytes()
}

// readFrame is a frame as read: its tag and the whole frame, header
// included.
type readFrame struct {
	tag   Tag
	frame string
}

// TestReaderGrowthKeepsEveryFrame reads one mixed stream through a growing
// Reader and through one fixed at MaxReadBuffer, over sources that return
// random short reads, and requires both to yield exactly the frames the
// stream holds, each whole through Frame around the payload Next returned
// (a router forwards update frames so). Under the random reads the growing reader doubles to its
// cap, and at least once with part of a frame in hand that must move to
// the new buffer.
func TestReaderGrowthKeepsEveryFrame(t *testing.T) {
	stream := mixedStream(t)
	var want []readFrame
	for p := stream; len(p) > 0; {
		tag, _, rest, err := NextFrame(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, p = append(want, readFrame{tag, string(p[:len(p)-len(rest)])}), rest
	}
	// drain reads every frame off r, counts the reads that grew the buffer
	// for more of a stream (not for a frame too large for it) with part of
	// a frame in it, and reports whether the buffer reached the cap.
	drain := func(r *Reader) (got []readFrame, straddled int, capped bool) {
		for {
			size, held := len(r.buf), r.w-r.r
			tag, p, err := r.Next()
			if errors.Is(err, core.ErrPeerClosed) {
				return got, straddled, capped
			}
			if err != nil {
				t.Fatalf("after %d frames: %v", len(got), err)
			}
			if len(r.buf) > size && len(p) < size {
				straddled += min(held, 1)
			}
			capped = capped || len(r.buf) == MaxReadBuffer
			if f := r.Frame(p); len(f) != len(p)+5 || string(f[5:]) != string(p) {
				t.Fatalf("frame %d: Frame is %d B around a %d-byte payload", len(got), len(f), len(p))
			}
			got = append(got, readFrame{tag, string(r.Frame(p))})
		}
	}
	short := func(seed int64) func() io.Reader {
		return func() io.Reader { return &shortReader{src: stream, rng: rand.New(rand.NewSource(seed))} }
	}
	for _, tc := range []struct {
		name  string
		src   func() io.Reader
		grows bool
	}{
		{"random/1", short(1), true},
		{"random/2", short(2), true},
		{"random/data-err", func() io.Reader { return iotest.DataErrReader(short(3)()) }, false}, // reads at most 1 KiB
		{"half", func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) }, false},
		{"one-byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) }, false},
	} {
		fixed := NewReader(tc.src(), 0, 0)
		fixed.buf = make([]byte, MaxReadBuffer)
		growing := NewReader(tc.src(), MaxReadBuffer, 0)
		for name, r := range map[string]*Reader{"fixed": fixed, "growing": growing} {
			got, straddled, capped := drain(r)
			if len(got) != len(want) {
				t.Fatalf("%s, %s reader: %d frames, want %d", tc.name, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %s reader: frame %d is %v (%d B), want %v (%d B)",
						tc.name, name, i, got[i].tag, len(got[i].frame), want[i].tag, len(want[i].frame))
				}
			}
			if r == growing && tc.grows && (!capped || straddled == 0) {
				t.Fatalf("%s: the buffer reached the cap: %v; grew with a partial frame in it %d times", tc.name, capped, straddled)
			}
		}
	}
}
