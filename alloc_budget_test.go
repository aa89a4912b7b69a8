// Allocation-budget regression gates for the filter and source hot
// paths: the Kalman predict/correct step must stay allocation-free even
// as instrumentation accretes around it. CI runs these as plain tests
// so a regression fails the build instead of silently drifting a
// benchmark number. Each budget is a constant beside its gate.
package streamkf_test

import (
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/mat"
	"streamkf/internal/model"
	"streamkf/internal/stream"
	"streamkf/internal/trace"
)

// filterStepAllocBudget is the allocs/op ceiling of Filter.Step for
// every model shape.
const filterStepAllocBudget = 0

func TestFilterStepAllocBudget(t *testing.T) {
	cases := []struct {
		name string
		m    model.Model
		z    []float64
	}{
		{"BenchmarkFilterStep/scalar", model.Constant(1, 0.05, 0.05), []float64{1.5}},
		{"BenchmarkFilterStep/linear1d", model.Linear(1, 1, 0.05, 0.05), []float64{1.5}},
		{"BenchmarkFilterStep/linear2d", model.Linear(2, 0.1, 0.05, 0.05), []float64{1.5, -0.5}},
	}
	for _, tc := range cases {
		f, err := tc.m.NewFilter(tc.z)
		if err != nil {
			t.Fatal(err)
		}
		z := mat.Vec(tc.z...)
		// Warm up so one-time lazy allocations do not count.
		for i := 0; i < 3; i++ {
			if err := f.Step(z); err != nil {
				t.Fatal(err)
			}
		}
		got := int64(testing.AllocsPerRun(200, func() {
			if err := f.Step(z); err != nil {
				t.Fatal(err)
			}
		}))
		if got > filterStepAllocBudget {
			t.Errorf("%s allocates %d/op, budget %d/op", tc.name, got, filterStepAllocBudget)
		}
	}
}

// sourceProcessAllocs measures the steady-state suppressed-path
// allocation cost of SourceNode.Process, optionally with a flight
// recorder attached.
func sourceProcessAllocs(t *testing.T, traced bool) float64 {
	t.Helper()
	node, err := core.NewSourceNode(core.Config{
		SourceID: "s1",
		Model:    model.Linear(1, 1, 0.05, 0.05),
		Delta:    1e9, // everything after bootstrap is suppressed
	})
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		node.SetTrace(trace.New(trace.Options{}))
	}
	r := stream.Reading{Values: []float64{1}}
	seq := 0
	offer := func() {
		r.Seq = seq
		r.Time = float64(seq)
		r.Values[0] = float64(seq)
		seq++
		u, _, err := node.Process(r)
		if err != nil {
			t.Fatal(err)
		}
		if u != nil && seq > 1 {
			t.Fatalf("reading %d transmitted under δ=1e9", seq-1)
		}
	}
	// Bootstrap plus warm-up so lazy one-time allocations do not count.
	for i := 0; i < 5; i++ {
		offer()
	}
	return testing.AllocsPerRun(200, offer)
}

// TestSourceProcessTraceAllocBudget pins the suppressed path of
// SourceNode.Process at zero allocations — the returned estimate is
// node-owned scratch, the filter reads the reading in place — and the
// tracing zero-cost contract on top of it: attaching a recorder, which
// logs predict and decision events for every suppressed reading, must
// not add a single allocation.
func TestSourceProcessTraceAllocBudget(t *testing.T) {
	base := sourceProcessAllocs(t, false)
	if base != 0 {
		t.Errorf("untraced suppressed Process allocates %v/op, want 0", base)
	}
	if got := sourceProcessAllocs(t, true); got != base {
		t.Errorf("traced suppressed Process allocates %v/op, untraced %v/op — tracing must be free", got, base)
	}
}

// TestSourceProcessSentAllocBudget pins the transmitted path at zero
// allocations too: the Update and its Values are the node's own, and a
// transport that keeps them until they are acknowledged copies them into
// storage of its own (the TCP agent's ring).
func TestSourceProcessSentAllocBudget(t *testing.T) {
	node, err := core.NewSourceNode(core.Config{
		SourceID: "s1",
		Model:    model.Linear(1, 1, 0.05, 0.05),
		Delta:    1e-9, // every reading misses the prediction
	})
	if err != nil {
		t.Fatal(err)
	}
	r := stream.Reading{Values: []float64{1}}
	offer := func() {
		r.Seq++
		r.Values[0] = float64(r.Seq % 7)
		if u, _, err := node.Process(r); err != nil || u == nil {
			t.Fatalf("reading %d: update %v, err %v; want a transmission", r.Seq, u, err)
		}
	}
	for i := 0; i < 5; i++ {
		offer()
	}
	if got := testing.AllocsPerRun(200, offer); got != 0 {
		t.Errorf("sent Process allocates %v/op, want 0", got)
	}
}
