package cluster

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"

	"streamkf/internal/core"
	"streamkf/internal/dsms"
	"streamkf/internal/dsms/wire"
	"streamkf/internal/stream"
)

// heapInUse is the heap bytes held after a collection: two, as the first
// only moves what sync.Pools hold to where the second frees it.
func heapInUse() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// installOnly is a source-facing server that installs inst on every
// connection and then reads its updates without acknowledging any: an
// agent's window fills and stays full.
func installOnly(t *testing.T, inst wire.Install) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := wire.NewReader(conn, 0, 0), wire.NewWriter(conn, 0, 0)
				if _, _, err := r.ReadPreamble(); err != nil {
					return
				}
				if _, _, err := r.Next(); err != nil { // the hello
					return
				}
				if w.WritePreamble(wire.Version, 0) != nil || w.Install(inst) != nil || w.Flush() != nil {
					return
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestInFlightFootprint is the budget of what one in-flight update holds
// on the heap, measured the way TestStreamFootprint measures a stream:
// heap bytes held after a collection. At the agent it is a dense
// one-value stream with its default window full and nothing acknowledged,
// from before the dial on, over the updates in flight: each is kept once,
// as its 25-byte frame in the agent's 128 KB ring (32 B an update). On
// the router it is that stream's route, from before the route is made,
// after it has relayed a full window with none of it acked, averaged over
// many such routes: a route keeps no update, so what it holds is a
// constant whatever the window.
// An agent holds nothing window-sized before it sends, whatever its
// window.
func TestInFlightFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a full window twice")
	}
	const id = "dense-0"
	const agentBudget, routeBudget = 40, 384
	window := dsms.DefaultWindow

	addr := installOnly(t, wire.Install{SourceID: id, Model: "constant", Delta: 1e-9, ResumeSeq: -1})
	dial := func(window int) (*dsms.RemoteAgent, uint64, uint64) {
		t.Helper()
		before := heapInUse()
		agent, err := dsms.DialSourceOptions(addr, id, testCatalog(), dsms.DialOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { agent.Close() })
		return agent, before, heapInUse() - before
	}
	// Whatever its window, a dial holds its read buffer and little else:
	// a window-sized buffer would be 64 B a slot, 256 KB, or more.
	_, _, sync := dial(1)
	agent, before, dialed := dial(0)
	if max(sync, dialed) > 32<<10 {
		t.Errorf("a dial holds %d B with window 1 and %d B with the default window, want under 32 KB", sync, dialed)
	}
	reading := stream.Reading{Values: make([]float64, 1)}
	for i := 0; i < window; i++ {
		reading.Seq, reading.Time, reading.Values[0] = i, float64(i), float64(i%7)
		if sent, err := agent.Offer(reading); err != nil || !sent {
			t.Fatalf("reading %d: sent %v, %v", i, sent, err)
		}
	}
	perAgent := (heapInUse() - before) / uint64(window)
	runtime.KeepAlive(agent)

	r := &Router{
		ring: NewRing(1, 0), tel: newRouterTelemetry(1), routes: make(map[string]*route),
		upstreams: []*upstream{{w: wire.NewWriter(io.Discard, 0, 0)}},
		opts:      Options{MaxFrame: wire.DefaultMaxFrame},
	}
	u := core.Update{SourceID: id, Values: []float64{0}}
	var stream []byte // the window's frames back to back, as a source's reads deliver them
	var frames [][]byte
	for i := 0; i < window; i++ {
		u.Seq, u.Values[0] = 1<<20+i, float64(i%7)
		var err error
		if stream, err = wire.AppendUpdateFrame(stream, &u); err != nil {
			t.Fatal(err)
		}
	}
	for rest := stream; len(rest) > 0; {
		_, _, next, err := wire.NextFrame(rest, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames, rest = append(frames, rest[:len(rest)-len(next)]), next
	}
	// The frames are the first stream's; relay forwards them verbatim,
	// so every route may reuse them. Many routes, for a per-route figure
	// the collector's own noise does not swamp.
	const routes = 256
	ids := make([][]byte, routes)
	for k := range ids {
		ids[k] = []byte(fmt.Sprintf("dense-%d", k))
	}
	run, touched := make([]fwdItem, 0, 64), make([]bool, 1)
	before = heapInUse()
	for _, id := range ids {
		rt := r.routeFor(id)
		for i, f := range frames { // runs of 64, as sources' reads deliver them
			if run = append(run, fwdItem{rt: rt, seq: int64(1<<20 + i), f: f}); len(run) == cap(run) {
				r.relay(run, touched)
				run = run[:0]
			}
		}
		if rt.hi != int64(1<<20+window-1) {
			t.Fatalf("route %s read through seq %d, want %d", id, rt.hi, 1<<20+window-1)
		}
	}
	perRoute := (int64(heapInUse()) - int64(before)) / routes
	runtime.KeepAlive(r)
	runtime.KeepAlive(frames)
	runtime.KeepAlive(ids)
	runtime.KeepAlive(run)

	t.Logf("window %d: %d B per in-flight update at the agent, %d B a route", window, perAgent, perRoute)
	if perAgent > agentBudget {
		t.Errorf("agent: %d B per in-flight update, budget %d", perAgent, agentBudget)
	}
	if perRoute > routeBudget {
		t.Errorf("route: %d B with a full window in flight, budget %d", perRoute, routeBudget)
	}
}
