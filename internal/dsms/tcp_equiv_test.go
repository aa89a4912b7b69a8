package dsms

import (
	"math"
	"testing"

	"streamkf/internal/dsms/wire"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
)

// TestTCPPipelinedEquivalence replays one stream through the old
// synchronous-ack semantics (window=1: every update waits for its ack)
// and through pipelined windows — 64, 1,024, the default, which is wider
// than the stream, and twice that, so whole bursts outgrow the server's
// read buffer at its full size and are folded in over several reads — and requires
// bit-identical server-side trajectories: identical update/suppression
// counts and identical query answers at every checkpoint. Pipelining
// cannot change DKF behavior because
// suppression decisions are made source-side against the mirror filter
// — ack latency is invisible to them — and the server folds updates in
// sequence order either way.
func TestTCPPipelinedEquivalence(t *testing.T) {
	data := gen.Ramp(40000, 5, 1.7, 0.8, 23)
	checkpoints := []int{99, 250, 2999, len(data) - 1}

	type result struct {
		updates    int
		suppressed int
		rxBytes    int64 // update frames the server read
		answers    [][]float64
	}
	run := func(window int) result {
		catalog := testCatalog()
		s := NewServer(catalog)
		mustRegister(t, s, stream.Query{ID: "q1", SourceID: "src", Delta: 2, Model: "linear"})
		ts := startServer(t, s)
		agent, err := DialSourceOptions(ts.Addr(), "src", catalog, DialOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		qc, err := DialQuery(ts.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer qc.Close()
		// Replay with mid-stream queries at each checkpoint: drain the
		// pipeline, then ask — the trajectory up to that point must
		// already be folded in, exactly as the synchronous protocol
		// would have it.
		var res result
		next := 0
		for _, cp := range checkpoints {
			for ; next <= cp; next++ {
				if _, err := agent.Offer(data[next]); err != nil {
					t.Fatal(err)
				}
			}
			if err := agent.Drain(); err != nil {
				t.Fatal(err)
			}
			ans, err := qc.Ask("q1", cp)
			if err != nil {
				t.Fatal(err)
			}
			res.answers = append(res.answers, ans)
		}
		st := agent.Stats()
		res.updates, res.suppressed = st.Updates, st.Suppressed
		res.rxBytes = counter(t, s, "dkf_wire_rx_bytes_total", telemetry.L("tag", "update"))
		return res
	}

	sync := run(1)
	if sync.rxBytes < 2*wire.MaxReadBuffer || sync.suppressed == 0 {
		t.Fatalf("degenerate stream: updates=%d (%d B) suppressed=%d, want two full read buffers of updates",
			sync.updates, sync.rxBytes, sync.suppressed)
	}
	t.Logf("updates=%d (%d B) suppressed=%d", sync.updates, sync.rxBytes, sync.suppressed)
	for _, window := range []int{64, 1024, DefaultWindow, 2 * DefaultWindow} {
		pipelined := run(window)
		if sync.updates != pipelined.updates || sync.suppressed != pipelined.suppressed {
			t.Fatalf("protocol counters diverge: sync ack %d/%d, window %d %d/%d (updates/suppressed)",
				sync.updates, sync.suppressed, window, pipelined.updates, pipelined.suppressed)
		}
		for i := range checkpoints {
			a, b := sync.answers[i], pipelined.answers[i]
			if len(a) != len(b) {
				t.Fatalf("checkpoint %d: answer lengths %d vs %d", checkpoints[i], len(a), len(b))
			}
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("checkpoint seq %d attr %d: sync ack %v, window %d %v — trajectories diverged",
						checkpoints[i], j, a[j], window, b[j])
				}
			}
		}
	}
}
