package cluster

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"streamkf/internal/dsms"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
)

func testCatalog() *dsms.Catalog { return dsms.DefaultCatalog(1) }

// startShard runs a dsms.Server on loopback and returns its TCP front.
func startShard(t *testing.T, s *dsms.Server, index int) *dsms.TCPServer {
	t.Helper()
	s.SetShardInfo(index, 0)
	ts, err := dsms.NewTCPServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ts.Serve()
	t.Cleanup(func() { ts.Close() })
	return ts
}

// startCluster brings up n shards behind a router.
func startCluster(t *testing.T, n int, opts Options) (*Router, []*dsms.Server) {
	t.Helper()
	servers := make([]*dsms.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i] = dsms.NewServer(testCatalog())
		addrs[i] = startShard(t, servers[i], i).Addr()
	}
	r, err := NewRouter("127.0.0.1:0", addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve()
	t.Cleanup(func() { r.Close() })
	return r, servers
}

// driveTCP replays per-source readings through TCP agents against addr,
// draining and asking queryID at each checkpoint seq. Both the single
// server and the router present the same protocol, so the identical
// client code drives both sides of every equivalence test.
func driveTCP(t *testing.T, addr, queryID string, data map[string][]stream.Reading, checkpoints []int) [][]float64 {
	t.Helper()
	catalog := testCatalog()
	agents := make(map[string]*dsms.RemoteAgent, len(data))
	for id := range data {
		a, err := dsms.DialSource(addr, id, catalog)
		if err != nil {
			t.Fatalf("dial %s: %v", id, err)
		}
		defer a.Close()
		agents[id] = a
	}
	qc, err := dsms.DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	var answers [][]float64
	next := 0
	for _, cp := range checkpoints {
		for ; next <= cp; next++ {
			for id, readings := range data {
				if next < len(readings) {
					if _, err := agents[id].Offer(readings[next]); err != nil {
						t.Fatalf("offer %s[%d]: %v", id, next, err)
					}
				}
			}
		}
		for id, a := range agents {
			if err := a.Drain(); err != nil {
				t.Fatalf("drain %s: %v", id, err)
			}
		}
		ans, err := qc.Ask(queryID, cp)
		if err != nil {
			t.Fatalf("ask @%d: %v", cp, err)
		}
		answers = append(answers, ans)
	}
	return answers
}

func requireBitIdentical(t *testing.T, got, want [][]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers vs %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: answer %d has %d values vs %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: answer %d value %d: cluster %v, single server %v — trajectories diverged",
					label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestClusterAggregateBitIdentical is the tentpole acceptance check: a
// cross-shard aggregate served through a 2-shard cluster must answer
// bit-identically to a single server evaluating the whole aggregate,
// for every aggregate function. The sources, the Δ budget, and the
// query checkpoints are identical on both sides; only the topology
// differs.
func TestClusterAggregateBitIdentical(t *testing.T) {
	const nSources = 6
	sources := make([]string, nSources)
	data := make(map[string][]stream.Reading, nSources)
	for i := range sources {
		sources[i] = fmt.Sprintf("sensor-%d", i)
		data[sources[i]] = gen.Ramp(300, float64(3+i), 1.1+0.3*float64(i), 0.7, int64(41+i))
	}
	checkpoints := []int{99, 299}

	for _, fn := range []dsms.AggFunc{dsms.AggSum, dsms.AggAvg, dsms.AggMin, dsms.AggMax} {
		t.Run(string(fn), func(t *testing.T) {
			agg := dsms.AggregateQuery{
				ID: "load", SourceIDs: sources, Func: fn, Delta: 6, Model: "linear",
			}

			// Single server: the reference trajectory.
			single := dsms.NewServer(testCatalog())
			if err := single.RegisterAggregate(agg); err != nil {
				t.Fatal(err)
			}
			ts, err := dsms.NewTCPServer(single, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go ts.Serve()
			defer ts.Close()
			want := driveTCP(t, ts.Addr(), "load", data, checkpoints)

			// 2-shard cluster behind the router.
			router, shards := startCluster(t, 2, Options{})
			owners := make(map[int]int)
			for _, id := range sources {
				owners[router.Ring().Owner(id)]++
			}
			if len(owners) != 2 {
				t.Fatalf("degenerate split: all sources landed on one shard (%v)", owners)
			}
			if err := router.RegisterAggregate(agg); err != nil {
				t.Fatal(err)
			}
			got := driveTCP(t, router.Addr(), "load", data, checkpoints)
			requireBitIdentical(t, got, want, string(fn))

			// Each shard only ever saw a partial view.
			for i, s := range shards {
				if z := s.Streamz(); z.Cluster == nil || z.Cluster.ShardIndex != i {
					t.Fatalf("shard %d missing cluster streamz block", i)
				} else if z.Cluster.OwnedStreams != owners[i] {
					t.Fatalf("shard %d owns %d streams, want %d", i, z.Cluster.OwnedStreams, owners[i])
				}
			}
		})
	}
}

// TestClusterAggregateSignedZeroTies pins the part of bit-identity that
// no ramp exercises: min and max over members tied at -0 and +0. The
// shared fold breaks the tie by sign, so the routed answer carries the
// single server's sign bit however the ring splits the members (folding
// first-seen-wins, the router's shard order and the server's member
// order disagree).
func TestClusterAggregateSignedZeroTies(t *testing.T) {
	// Lead with a shard-1 member, then a shard-0 member of the other
	// sign: shard 0's partial, merged first, then opens on the opposite
	// sign from the single server's member order.
	ring := NewRing(2, 0)
	sources := []string{"", ""}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("z-%d", i)
		switch owner := ring.Owner(id); {
		case sources[0] == "" && owner == 1:
			sources[0] = id
		case sources[1] == "" && owner == 0:
			sources[1] = id
		default:
			sources = append(sources, id)
		}
	}
	for _, first := range []float64{0, math.Copysign(0, -1)} {
		data := make(map[string][]stream.Reading, len(sources))
		for i, id := range sources {
			v := first
			if i%2 == 1 {
				v = -first
			}
			data[id] = []stream.Reading{{Seq: 0, Values: []float64{v}}}
		}
		for _, fn := range []dsms.AggFunc{dsms.AggSum, dsms.AggAvg, dsms.AggMin, dsms.AggMax} {
			agg := dsms.AggregateQuery{ID: "tie", SourceIDs: sources, Func: fn, Delta: 1, Model: "constant"}
			single := dsms.NewServer(testCatalog())
			if err := single.RegisterAggregate(agg); err != nil {
				t.Fatal(err)
			}
			want := driveTCP(t, startShard(t, single, -1).Addr(), "tie", data, []int{0})

			router, _ := startCluster(t, 2, Options{})
			if err := router.RegisterAggregate(agg); err != nil {
				t.Fatal(err)
			}
			got := driveTCP(t, router.Addr(), "tie", data, []int{0})
			requireBitIdentical(t, got, want, fmt.Sprintf("%s from %v", fn, first))
		}
	}
}

// TestClusterPlainQueryRouting: a per-stream query registered through
// the router lands on the owning shard and answers identically to a
// single server.
func TestClusterPlainQueryRouting(t *testing.T) {
	data := map[string][]stream.Reading{"solo": gen.Ramp(250, 4, 1.5, 0.6, 7)}
	checkpoints := []int{120, 249}
	q := stream.Query{ID: "q1", SourceID: "solo", Delta: 2, Model: "linear"}

	single := dsms.NewServer(testCatalog())
	if err := single.Register(q); err != nil {
		t.Fatal(err)
	}
	ts, err := dsms.NewTCPServer(single, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ts.Serve()
	defer ts.Close()
	want := driveTCP(t, ts.Addr(), "q1", data, checkpoints)

	router, shards := startCluster(t, 2, Options{})
	if err := router.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	got := driveTCP(t, router.Addr(), "q1", data, checkpoints)
	requireBitIdentical(t, got, want, "plain query")

	owner := router.Ring().Owner("solo")
	if !shards[owner].HasQuery("q1") {
		t.Fatalf("owning shard %d does not hold q1", owner)
	}
	if shards[1-owner].HasQuery("q1") {
		t.Fatalf("non-owning shard %d holds q1", 1-owner)
	}
}

// TestClusterMigration is the live-migration acceptance check: a
// stream moves between shards mid-flight via checkpoint snapshot and
// ResumeSeq cutover, the source notices nothing, and the trajectory
// stays bit-identical to a single server that never migrated anything.
func TestClusterMigration(t *testing.T) {
	const id = "mig-src"
	data := map[string][]stream.Reading{id: gen.Ramp(400, 2, 1.3, 0.8, 19)}
	q := stream.Query{ID: "qm", SourceID: id, Delta: 2, Model: "linear"}

	single := dsms.NewServer(testCatalog())
	if err := single.Register(q); err != nil {
		t.Fatal(err)
	}
	ts, err := dsms.NewTCPServer(single, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ts.Serve()
	defer ts.Close()
	want := driveTCP(t, ts.Addr(), "qm", data, []int{199, 399})

	router, shards := startCluster(t, 2, Options{})
	if err := router.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	home := router.Ring().Owner(id)
	target := 1 - home

	catalog := testCatalog()
	agent, err := dsms.DialSource(router.Addr(), id, catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	qc, err := dsms.DialQuery(router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	var got [][]float64
	readings := data[id]
	for i := 0; i <= 199; i++ {
		if _, err := agent.Offer(readings[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	ans, err := qc.Ask("qm", 199)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, ans)

	if err := router.Migrate(id, target); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if z := shards[home].Streamz().Cluster; z.ReleasedStreams != 1 {
		t.Fatalf("old shard marked %d streams released, want the migrated one", z.ReleasedStreams)
	}
	if owner := router.Ring().Owner(id); owner != target {
		t.Fatalf("post-migration owner %d, want %d", owner, target)
	}

	// The same connection keeps streaming; the target resumes the
	// filter pair from the snapshot — no re-bootstrap.
	for i := 200; i <= 399; i++ {
		if _, err := agent.Offer(readings[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	ans, err = qc.Ask("qm", 399)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, ans)

	requireBitIdentical(t, got, want, "migration")

	// The forwarded stream really runs on the target now.
	var onTarget bool
	for _, st := range shards[target].Stats() {
		if st.SourceID == id && st.Updates > 0 {
			onTarget = true
		}
	}
	if !onTarget {
		t.Fatal("target shard shows no applied updates for the migrated stream")
	}
}

// TestMigrationRacingForwards hammers Migrate back and forth while the
// source streams at full rate. Suppression decisions are made
// source-side against the mirror filter and the migration transfers
// filter state exactly, so no matter where the cutovers land the final
// trajectory must still match the single server bit-for-bit. Run under
// -race this is also the locking proof for the forward-vs-migrate
// paths.
func TestMigrationRacingForwards(t *testing.T) {
	const id = "race-src"
	data := map[string][]stream.Reading{id: gen.Ramp(1200, 1, 0.9, 1.1, 5)}
	q := stream.Query{ID: "qr", SourceID: id, Delta: 1.5, Model: "linear"}

	single := dsms.NewServer(testCatalog())
	if err := single.Register(q); err != nil {
		t.Fatal(err)
	}
	ts, err := dsms.NewTCPServer(single, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ts.Serve()
	defer ts.Close()
	want := driveTCP(t, ts.Addr(), "qr", data, []int{1199})

	router, _ := startCluster(t, 2, Options{})
	if err := router.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	home := router.Ring().Owner(id)

	agent, err := dsms.DialSource(router.Addr(), id, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, rd := range data[id] {
			if _, err := agent.Offer(rd); err != nil {
				t.Errorf("offer: %v", err)
				return
			}
		}
	}()
	// Bounce the stream between shards while it flows: each Migrate is
	// a snapshot + restore + replay racing the live forward path.
	for i := 0; i < 6; i++ {
		time.Sleep(5 * time.Millisecond)
		target := home
		if i%2 == 0 {
			target = 1 - home
		}
		if err := router.Migrate(id, target); err != nil {
			t.Fatalf("migrate %d: %v", i, err)
		}
	}
	wg.Wait()
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	qc, err := dsms.DialQuery(router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	ans, err := qc.Ask("qr", 1199)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, [][]float64{ans}, want, "racing migration")
}

// TestRouterUDPForward: the connectionless transport works through the
// router — hello gets an install datagram back, updates are forwarded
// to the owning shard over TCP, and the shard's trajectory matches the
// data.
func TestRouterUDPForward(t *testing.T) {
	const id = "udp-src"
	q := stream.Query{ID: "qu", SourceID: id, Delta: 2, Model: "linear"}
	router, shards := startCluster(t, 2, Options{})
	if err := router.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	go router.ServeUDP("127.0.0.1:0")
	deadline := time.Now().Add(2 * time.Second)
	for router.UDPAddr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("udp front did not come up")
		}
		time.Sleep(time.Millisecond)
	}

	agent, err := dsms.DialSourceUDP(router.UDPAddr(), id, testCatalog(), dsms.UDPDialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	readings := gen.Ramp(120, 3, 1.2, 0.5, 11)
	for _, rd := range readings {
		if _, err := agent.Offer(rd); err != nil {
			t.Fatal(err)
		}
	}
	owner := router.Ring().Owner(id)
	deadline = time.Now().Add(5 * time.Second)
	for {
		var applied int64
		for _, st := range shards[owner].Stats() {
			if st.SourceID == id {
				applied = int64(st.Updates)
			}
		}
		if applied > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("owning shard never applied a UDP-forwarded update")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
