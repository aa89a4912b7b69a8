package dsms

import (
	"bytes"
	"os"
	"testing"

	"streamkf/internal/core"
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
// of goldenServer's history to the bytes testdata/golden holds, which a
// server that kept each stream's queries in a slice of stream.Query wrote:
// the record's layout is not the encoding's. Stats counts the same queries.
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
	for name, got := range map[string][]byte{"checkpoint.bin": ckpt, "snapshot.bin": snap} {
		want, err := os.ReadFile("testdata/golden/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoded %d bytes, differing from the golden %d", name, len(got), len(want))
		}
	}
}
