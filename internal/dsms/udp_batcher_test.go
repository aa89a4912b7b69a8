package dsms

import (
	"sort"
	"strings"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
)

// newBatcherPair is a UDP server with streams src and src2 installed and
// a batcher packing into it at the default datagram size.
func newBatcherPair(t *testing.T) (*Server, *UDPBatcher) {
	t.Helper()
	s, ts := newUDPPair(t, udpQuery())
	if err := s.Register(stream.Query{ID: "q2", SourceID: "src2", Delta: 0.5, Model: "linear"}); err != nil {
		t.Fatal(err)
	}
	go ts.Serve()
	for _, id := range []string{"src", "src2"} {
		if _, err := s.InstallFor(id); err != nil {
			t.Fatal(err)
		}
	}
	b, err := DialUDPBatcher(ts.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return s, b
}

// waitUpdates waits until the server has applied want updates for each
// stream, or fails naming what it applied and how many datagrams it
// rejected.
func waitUpdates(t *testing.T, s *Server, want map[string]int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		got := make(map[string]int)
		for _, st := range s.Stats() {
			got[st.SourceID] = st.Updates
		}
		done := true
		for id, n := range want {
			done = done && got[id] == n
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("applied updates %v, want %v (datagrams_bad %d)", got, want, s.Streamz().Engine.DatagramsBad)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func bootstrap(id string, values int) core.Update {
	return core.Update{SourceID: id, Values: make([]float64, values), Bootstrap: true}
}

// TestUDPBatcherRefusedSendKeepsDatagram: an update whose frame fails to
// encode (an id longer than a frame can carry) is refused, and the frames
// around it still arrive — the refused frame's header must not stay in
// the open datagram, where the receiver would read it as malformed and
// drop everything after it.
func TestUDPBatcherRefusedSendKeepsDatagram(t *testing.T) {
	s, b := newBatcherPair(t)
	if err := b.Send(bootstrap("src", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(bootstrap(strings.Repeat("x", 70000), 1)); err == nil {
		t.Fatal("Send accepted a 70,000-byte id")
	}
	if err := b.Send(bootstrap("src2", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	waitUpdates(t, s, map[string]int{"src": 1, "src2": 1})
	if bad := s.Streamz().Engine.DatagramsBad; bad != 0 {
		t.Fatalf("datagrams_bad = %d, want 0", bad)
	}
}

// TestUDPBatcherDatagramPayloadLimit: a frame that would take the open
// datagram past the UDP payload limit seals it first, and one that fits
// no datagram is refused at Send. Either way the updates other streams
// had sent already arrive; before, the oversize datagram failed the
// whole batch at Flush.
func TestUDPBatcherDatagramPayloadLimit(t *testing.T) {
	s, b := newBatcherPair(t)
	if err := b.Send(bootstrap("src", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(bootstrap("src2", 8200)); err == nil {
		t.Fatal("Send accepted an update with 8,200 values, past any datagram")
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	waitUpdates(t, s, map[string]int{"src": 1, "src2": 0})

	// The largest update one datagram carries, behind an open datagram
	// it does not fit beside. The server drops it (src2 is one value
	// wide) after the reader has parsed it, so the datagram is not bad.
	n := sort.Search(8200, func(n int) bool {
		big := bootstrap("src2", n)
		frame, err := wire.AppendUpdateFrame(wire.AppendPreamble(nil, wire.Version, 0), &big)
		return err != nil || len(frame) > maxPayload
	}) - 1
	if err := b.Send(core.Update{SourceID: "src", Seq: 1, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(bootstrap("src2", n)); err != nil {
		t.Fatalf("Send refused an update that fits a datagram of its own: %v", err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	waitUpdates(t, s, map[string]int{"src": 2, "src2": 0})
	if bad := s.Streamz().Engine.DatagramsBad; bad != 0 {
		t.Fatalf("datagrams_bad = %d, want 0", bad)
	}
}
