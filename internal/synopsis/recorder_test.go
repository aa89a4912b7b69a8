package synopsis

import (
	"math"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/gen"
	"streamkf/internal/model"
)

func TestRecorderValidation(t *testing.T) {
	s, err := New(linearModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordUpdate(1, []float64{1}); err == nil {
		t.Fatal("RecordUpdate before bootstrap accepted")
	}
	if err := s.ExtendTo(5); err == nil {
		t.Fatal("ExtendTo before bootstrap accepted")
	}
	if err := s.RecordBootstrap(0, []float64{1, 2}); err == nil {
		t.Fatal("bootstrap with wrong arity accepted")
	}
	if err := s.RecordBootstrap(0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordBootstrap(0, []float64{1}); err == nil {
		t.Fatal("double bootstrap accepted")
	}
	if err := s.RecordUpdate(0, []float64{1}); err == nil {
		t.Fatal("non-increasing update seq accepted")
	}
	if err := s.RecordUpdate(3, []float64{1, 2}); err == nil {
		t.Fatal("update with wrong arity accepted")
	}
	if s.FirstSeq() != 0 || s.LastSeq() != 0 {
		t.Fatalf("seq bounds %d..%d, want 0..0", s.FirstSeq(), s.LastSeq())
	}
}

// TestRecorderMatchesLiveProtocol is the load-bearing test: a store fed
// only the session's transmitted updates must reproduce, at every
// sequence number, either the exact transmitted value (update steps) or
// the very prediction the server answered live (suppressed steps), bit
// for bit.
func TestRecorderMatchesLiveProtocol(t *testing.T) {
	m := model.Linear(1, 1, 0.05, 0.05)
	cfg := core.Config{SourceID: "s", Model: m, Delta: 2}
	sess, err := core.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(m, cfg.Delta)
	if err != nil {
		t.Fatal(err)
	}

	data := gen.RandomWalk(300, 0, 1.5, 17)
	liveAnswers := make([]float64, len(data))
	src := sess.Source()
	for i, r := range data {
		u, _, err := src.Process(r)
		if err != nil {
			t.Fatal(err)
		}
		if u != nil {
			if err := sess.Server().ApplyUpdate(*u); err != nil {
				t.Fatal(err)
			}
			if u.Bootstrap {
				if err := store.RecordBootstrap(u.Seq, u.Values); err != nil {
					t.Fatal(err)
				}
			} else if err := store.RecordUpdate(u.Seq, u.Values); err != nil {
				t.Fatal(err)
			}
		} else {
			sess.Server().AdvanceTo(r.Seq)
		}
		est, _ := sess.Server().Estimate()
		liveAnswers[i] = est[0]
	}
	if err := store.ExtendTo(data[len(data)-1].Seq); err != nil {
		t.Fatal(err)
	}

	rec, err := store.Range(0, len(data)-1)
	if err != nil {
		t.Fatal(err)
	}
	correctionSeqs := make(map[int]bool, len(store.corrections))
	for _, c := range store.corrections {
		correctionSeqs[c.Seq] = true
	}
	for i, r := range rec {
		if correctionSeqs[r.Seq] || r.Seq == store.FirstSeq() {
			// Update step: replay returns the exact transmitted value.
			if math.Abs(r.Values[0]-data[i].Values[0]) > 1e-12 {
				t.Fatalf("seq %d: replay %v != transmitted %v", r.Seq, r.Values[0], data[i].Values[0])
			}
			continue
		}
		// Suppressed step: replay must equal the live server answer.
		if math.Float64bits(r.Values[0]) != math.Float64bits(liveAnswers[i]) {
			t.Fatalf("seq %d: replay %v != live answer %v", r.Seq, r.Values[0], liveAnswers[i])
		}
	}
}

func TestRecorderAtAndRangeBounds(t *testing.T) {
	m := model.Linear(1, 1, 0.05, 0.05)
	s, err := New(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(0); err == nil {
		t.Fatal("At on empty store accepted")
	}
	if err := s.RecordBootstrap(10, []float64{5}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordUpdate(13, []float64{8}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Range(9, 12); err == nil {
		t.Fatal("Range before bootstrap accepted")
	}
	if _, err := s.Range(12, 11); err == nil {
		t.Fatal("inverted Range accepted")
	}
	if _, err := s.Range(10, 14); err == nil {
		t.Fatal("Range beyond lastSeq accepted")
	}
	v, err := s.At(13)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 8 {
		t.Fatalf("At(13) = %v, want the transmitted 8", v[0])
	}
	if s.Tolerance() != 1 {
		t.Fatalf("Tolerance = %v", s.Tolerance())
	}
}

func TestRecorderStreamGapsArePredictions(t *testing.T) {
	m := model.Linear(1, 1, 1e-6, 1e-6)
	s, err := New(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap at 0 with value 0, update at 2 with 2, then silence to 5
	// on a slope-1 ramp: the replayed values at 3..5 must extrapolate.
	if err := s.RecordBootstrap(0, []float64{0}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordUpdate(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordUpdate(2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := s.ExtendTo(5); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Range(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{3, 4, 5} {
		if math.Abs(rec[i].Values[0]-want) > 0.2 {
			t.Fatalf("gap seq %d: %v, want ~%v", rec[i].Seq, rec[i].Values[0], want)
		}
	}
}
