package dsms

import (
	"math"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/stream"
)

func TestTimeMapRateAndSeq(t *testing.T) {
	var tm timeMap
	if _, ok := tm.rate(); ok {
		t.Fatal("rate before anchoring")
	}
	tm.observe(0, 100)
	if _, ok := tm.rate(); ok {
		t.Fatal("rate with a single anchor")
	}
	tm.observe(10, 110) // 1 s per reading
	dt, ok := tm.rate()
	if !ok || dt != 1 {
		t.Fatalf("rate = %v, %v; want 1, true", dt, ok)
	}
	seq, err := tm.seqFor(125)
	if err != nil || seq != 25 {
		t.Fatalf("seqFor(125) = %d, %v; want 25", seq, err)
	}
	if _, err := tm.seqFor(50); err == nil {
		t.Fatal("mapped a pre-stream timestamp")
	}
	// Stale or rewound observations must not corrupt the anchors.
	tm.observe(5, 104)
	if dt, _ := tm.rate(); dt != 1 {
		t.Fatalf("stale observe changed rate to %v", dt)
	}
}

// timedRamp emits a slope-2 ramp sampled every 0.5 s starting at t=1000.
func timedRamp(n int) []stream.Reading {
	out := make([]stream.Reading, n)
	for i := range out {
		out[i] = stream.Reading{Seq: i, Time: 1000 + 0.5*float64(i), Values: []float64{2 * float64(i)}}
	}
	return out
}

func TestAnswerAtTimeEndToEnd(t *testing.T) {
	s := NewServer(testCatalog())
	mustRegister(t, s, stream.Query{ID: "q", SourceID: "src", Delta: 1, Model: "linear"})
	if err := s.EnableHistory("src"); err != nil {
		t.Fatal(err)
	}
	cfg, err := s.InstallFor("src")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(cfg, core.TransportFunc(func(u core.Update) error { return s.HandleUpdate(u) }))
	if err != nil {
		t.Fatal(err)
	}
	data := timedRamp(200)
	if err := agent.Run(stream.NewSliceSource(data)); err != nil {
		t.Fatal(err)
	}

	// Sampling rate inferred from updates: 0.5 s per reading.
	if seq, err := s.source("src").times.seqFor(1000 + 0.5*60); err != nil || seq != 60 {
		t.Fatalf("seqFor = %d, %v; want 60", seq, err)
	}

	// Past timestamp resolves through history.
	past, err := s.AnswerAtTime("q", 1000+0.5*60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(past[0]-120) > 3 {
		t.Fatalf("past answer %v, want ~120", past[0])
	}
	// Future timestamp extrapolates the live prediction.
	future, err := s.AnswerAtTime("q", 1000+0.5*250)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(future[0]-500) > 10 {
		t.Fatalf("future answer %v, want ~500", future[0])
	}
	if _, err := s.AnswerAtTime("missing", 1000); err == nil {
		t.Fatal("AnswerAtTime for unknown query")
	}
	if _, err := s.AnswerAtTime("q", 1); err == nil {
		t.Fatal("AnswerAtTime for pre-stream timestamp")
	}
}
