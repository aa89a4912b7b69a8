package cluster

import (
	"bytes"
	"errors"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
)

// routeWithPending builds a route whose pending window holds one entry
// per seq, each payload carrying its seq so replay order is checkable.
func routeWithPending(seqs ...int64) *route {
	rt := &route{idx: 7}
	for _, seq := range seqs {
		rt.log = append(rt.log, byte(seq))
		rt.pending = append(rt.pending, pendEntry{seq: seq, end: len(rt.log)})
	}
	return rt
}

// TestRouteTrimThroughReplayTo pins the two window helpers pumpAck,
// helloRoute, ReconnectShard and Migrate all rely on: trimThrough drops
// exactly the acked prefix and its payloads from the log, and replayTo
// re-forwards what is left in send order under the given epoch.
func TestRouteTrimThroughReplayTo(t *testing.T) {
	cases := []struct {
		name    string
		pending []int64
		ack     int64
		left    []int64
	}{
		{"empty window", nil, 5, nil},
		{"negative resume on empty window", nil, -1, nil},
		{"ack below head", []int64{3, 4, 5}, 2, []int64{3, 4, 5}},
		{"negative resume keeps all", []int64{0, 1}, -1, []int64{0, 1}},
		{"ack inside", []int64{3, 4, 5}, 4, []int64{5}},
		{"ack at tail", []int64{3, 4, 5}, 5, nil},
		{"ack past tail", []int64{3, 4, 5}, 99, nil},
		{"gapped seqs", []int64{2, 6, 9}, 7, []int64{9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := routeWithPending(tc.pending...)
			rt.trimThrough(tc.ack)
			if len(rt.pending) != len(tc.left) {
				t.Fatalf("pending = %d entries, want %d", len(rt.pending), len(tc.left))
			}
			for i, e := range rt.pending {
				if e.seq != tc.left[i] || e.end-rt.head != i+1 {
					t.Fatalf("pending[%d] = seq %d ending at %d past the head, want seq %d ending at %d", i, e.seq, e.end-rt.head, tc.left[i], i+1)
				}
			}
			// The log keeps exactly the live payloads, from its head on.
			if live := len(rt.log) - rt.head; live != len(tc.left) {
				t.Fatalf("log keeps %d live bytes, want %d", live, len(tc.left))
			}

			var sent bytes.Buffer
			up := &upstream{w: wire.NewWriter(&sent, 0, 0)}
			if err := rt.replayTo(up, 42); err != nil {
				t.Fatal(err)
			}
			r := wire.NewReader(&sent, 0, 0)
			for _, want := range tc.left {
				tag, p, err := r.Next()
				if err != nil || tag != wire.TagForward {
					t.Fatalf("replayed frame = %v, %v; want a forward", tag, err)
				}
				env, err := wire.DecodeForward(p)
				if err != nil || env.Idx != rt.idx || env.Epoch != 42 || !bytes.Equal(env.Payload, []byte{byte(want)}) {
					t.Fatalf("replayed %+v, %v; want idx %d epoch 42 payload of seq %d", env, err, rt.idx, want)
				}
			}
			if _, _, err := r.Next(); !errors.Is(err, core.ErrPeerClosed) {
				t.Fatalf("after the window: %v, want a clean end (nothing extra replayed)", err)
			}
			// Replay leaves the window in place: only an ack trims it.
			if len(rt.pending) != len(tc.left) {
				t.Fatalf("replayTo changed the window: %d entries, want %d", len(rt.pending), len(tc.left))
			}
		})
	}
}
