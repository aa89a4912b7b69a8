package dsms

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/kalman"
	"streamkf/internal/stream"
	"streamkf/internal/wal"
)

// goldenServer builds one fixed history: stream a with three point queries
// registered out of id order and the middle one dropped, fed with gaps; b
// fed densely; c installed but never bootstrapped; d only registered.
func goldenServer(t *testing.T) *Server {
	s := NewServer(testCatalog())
	for _, q := range []stream.Query{
		{ID: "q-a3", SourceID: "a", Delta: 2, Model: "linear"},
		{ID: "q-a1", SourceID: "a", Delta: 0.5, F: 1e-3, Model: "linear"},
		{ID: "q-a2", SourceID: "a", Delta: 0.25, Model: "linear"},
		{ID: "q-b", SourceID: "b", Delta: 1, Model: "constant"},
		{ID: "q-c", SourceID: "c", Delta: 1, Model: "constant"},
		{ID: "q-d", SourceID: "d", Delta: 1, F: 0.5, Model: "constant"},
	} {
		mustRegister(t, s, q)
	}
	s.mu.Lock()
	s.dropLocked("q-a2")
	s.mu.Unlock()
	if _, err := s.InstallFor("a"); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int{0, 1, 4, 9, 10, 30} {
		u := core.Update{SourceID: "a", Seq: seq, Time: float64(seq), Values: []float64{1.5*float64(seq) - 2}, Bootstrap: seq == 0}
		if err := s.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, s, "b", 20)
	if _, err := s.InstallFor("c"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckpointBytesGolden pins the checkpoint and the migration snapshot
// of goldenServer's history to the bytes testdata/golden holds in
// checkpoint-sums.bin and snapshot-sums.bin. Stats counts the same
// queries.
func TestCheckpointBytesGolden(t *testing.T) {
	s := goldenServer(t)
	for _, st := range s.Stats() {
		if want := map[string]int{"a": 2, "b": 1, "c": 1, "d": 1}[st.SourceID]; st.Queries != want {
			t.Errorf("%s: Stats counts %d queries, want %d", st.SourceID, st.Queries, want)
		}
	}
	ckpt, _ := s.encodeCheckpoint(wal.Position{Seg: 2, Off: 4096})
	snap, _, err := s.SnapshotSource("a", 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{"checkpoint-sums.bin": ckpt, "snapshot-sums.bin": snap} {
		want, err := os.ReadFile("testdata/golden/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoded %d bytes, differing from the golden %d", name, len(got), len(want))
		}
	}
}

// TestRestorePreviousLayout restores testdata/golden's checkpoint.bin and
// snapshot.bin — goldenServer's history as a server wrote it that kept
// each stream's last 16 innovations, nodeState 2 — and requires every
// stream's filter, seq, ticks and counters to equal goldenServer's. Stream
// a has seen 5 innovations, all of them in the window, so folding them
// into the sums must also give the live sums bit for bit.
func TestRestorePreviousLayout(t *testing.T) {
	want := goldenServer(t)
	ckpt, err := os.ReadFile("testdata/golden/checkpoint.bin")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile("testdata/golden/snapshot.bin")
	if err != nil {
		t.Fatal(err)
	}
	fromCkpt := NewServer(testCatalog())
	if from, err := fromCkpt.restoreCheckpoint(ckpt); err != nil || from != (wal.Position{Seg: 2, Off: 4096}) {
		t.Fatalf("checkpoint.bin restores to position %+v, %v", from, err)
	}
	fromSnap := NewServer(testCatalog())
	if id, last, err := fromSnap.RestoreSource(snap, 7); err != nil || id != "a" || last != 30 {
		t.Fatalf("snapshot.bin restores as %q at %d, %v", id, last, err)
	}
	for _, tc := range []struct {
		got *Server
		ids []string
	}{{fromCkpt, []string{"a", "b", "c", "d"}}, {fromSnap, []string{"a"}}} {
		for _, id := range tc.ids {
			g, w := tc.got.source(id), want.source(id)
			if g == nil {
				t.Fatalf("%s: not restored", id)
			}
			if g.lastSeq != w.lastSeq || g.updates != w.updates || g.suppressed != w.suppressed || g.bytes != w.bytes {
				t.Errorf("%s: counters (%d, %d, %d, %d), want (%d, %d, %d, %d)", id,
					g.lastSeq, g.updates, g.suppressed, g.bytes, w.lastSeq, w.updates, w.suppressed, w.bytes)
			}
			if g.node.Installed() != w.node.Installed() || g.node.Bootstrapped() != w.node.Bootstrapped() {
				t.Fatalf("%s: installed %v bootstrapped %v, want %v %v", id,
					g.node.Installed(), g.node.Bootstrapped(), w.node.Installed(), w.node.Bootstrapped())
			}
			if !w.node.Bootstrapped() {
				continue
			}
			gs, ws := g.node.Snapshot(), w.node.Snapshot()
			if !kalman.StateEqual(g.node.Filter(), w.node.Filter()) || gs.Seq != ws.Seq || gs.Ticks != ws.Ticks {
				t.Errorf("%s: restored filter (k %d, seq %d, ticks %d) differs from goldenServer's (k %d, seq %d, ticks %d)",
					id, gs.K, gs.Seq, gs.Ticks, ws.K, ws.Seq, ws.Ticks)
			}
			if id == "a" && fmt.Sprint(gs) != fmt.Sprint(ws) {
				t.Errorf("a: restored snapshot %+v, want %+v", gs, ws)
			}
		}
	}
}
