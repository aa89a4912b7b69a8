package dsms

import (
	"fmt"
	"testing"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/dsms/engine"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
)

// selfClock hands Tick evenly spaced synthetic times so windowed
// assertions are exact and tests never sleep.
type selfClock struct {
	t     time.Time
	every time.Duration
}

func newSelfClock(every time.Duration) *selfClock {
	return &selfClock{t: time.Unix(1_700_000_000, 0), every: every}
}

func (c *selfClock) tick(m *SelfMonitor) {
	c.t = c.t.Add(c.every)
	m.Tick(c.t)
}

// TestSelfMonVerdictTransitions drives scripted signals through the
// full verdict lifecycle: ok at bootstrap and steady state, degraded
// on a warn-severity δ-violation with filter evidence in the reasons,
// recovery to ok after the filter re-converges, and unhealthy when the
// violating signal is critical.
func TestSelfMonVerdictTransitions(t *testing.T) {
	warn, crit := 10.0, 5.0
	s := NewServer(testCatalog())
	m, err := s.EnableSelfMon(SelfMonOptions{
		Every: time.Second, Recover: 3,
		Signals: []SelfSignal{
			{Name: "warn_sig", Model: "constant", Delta: 1,
				Read: func(*SelfMonitor) (float64, bool) { return warn, true }},
			{Name: "crit_sig", Model: "constant", Delta: 1, Critical: true,
				Read: func(*SelfMonitor) (float64, bool) { return crit, true }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newSelfClock(time.Second)

	// Bootstrap and steady state: transmissions happen (the bootstrap)
	// but no finding, no verdict change.
	for i := 0; i < 4; i++ {
		clk.tick(m)
	}
	if h := s.Health(); h.Status != "ok" || len(h.Reasons) != 0 {
		t.Fatalf("steady state health = %+v, want ok with no reasons", h)
	}
	if f := m.Findings(10); len(f) != 0 {
		t.Fatalf("steady state recorded findings: %+v", f)
	}

	// A step change beyond δ on the warn signal: degraded, with the
	// decision evidence (value, prediction, residual, δ) in the reason.
	warn = 20
	clk.tick(m)
	h := s.Health()
	if h.Status != "degraded" {
		t.Fatalf("health after warn step = %q, want degraded", h.Status)
	}
	if len(h.Reasons) == 0 || h.Reasons[0].Signal != "warn_sig" || h.Reasons[0].Kind != "delta_violation" {
		t.Fatalf("reasons = %+v, want warn_sig delta_violation", h.Reasons)
	}
	if r := h.Reasons[0]; r.Value != 20 || r.Residual <= r.Delta || r.Delta != 1 {
		t.Fatalf("reason evidence inconsistent: %+v", r)
	}
	f := m.Findings(1)
	if len(f) != 1 || f[0].Signal != "warn_sig" || f[0].Kind != "delta_violation" || f[0].Value != 20 {
		t.Fatalf("finding = %+v, want warn_sig delta_violation at 20", f)
	}
	if v, ok := s.Telemetry().Get("dkf_selfmon_findings_total"); !ok || v < 1 {
		t.Fatalf("dkf_selfmon_findings_total = %v %v, want >= 1", v, ok)
	}

	// The signal holds at 20: the constant filter re-converges, the
	// violation ages out after Recover quiet ticks, and the verdict
	// returns to ok.
	recovered := false
	for i := 0; i < 30; i++ {
		clk.tick(m)
		if s.Health().Status == "ok" {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("verdict never recovered to ok; health = %+v", s.Health())
	}

	// A critical signal's violation makes the verdict unhealthy.
	crit = 50
	clk.tick(m)
	h = s.Health()
	if h.Status != "unhealthy" {
		t.Fatalf("health after critical step = %q, want unhealthy", h.Status)
	}
	found := false
	for _, r := range h.Reasons {
		if r.Signal == "crit_sig" && r.Critical {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons missing critical crit_sig entry: %+v", h.Reasons)
	}
	for i := 0; i < 30 && s.Health().Status != "ok"; i++ {
		clk.tick(m)
	}
	if got := s.Health().Status; got != "ok" {
		t.Fatalf("verdict stuck at %q after critical recovery", got)
	}
}

// TestSelfMonIntermittentSignalSync pins the mirror-synchrony rule for
// self-streams: a signal that skips ticks (Read ok=false) must not
// advance the reading index, or the server-side AdvanceTo would run
// more predicts than the mirror. The proof is behavioral — after many
// skipped ticks a δ-violation still lands as a finding, which only
// happens when ApplyUpdate accepts the update.
func TestSelfMonIntermittentSignalSync(t *testing.T) {
	v, feed := 5.0, 0
	s := NewServer(testCatalog())
	m, err := s.EnableSelfMon(SelfMonOptions{
		Every: time.Second, Recover: 2,
		Signals: []SelfSignal{
			{Name: "flaky", Model: "constant", Delta: 1,
				Read: func(*SelfMonitor) (float64, bool) {
					feed++
					return v, feed%3 != 0 // every third tick is skipped
				}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newSelfClock(time.Second)
	for i := 0; i < 20; i++ {
		clk.tick(m)
	}
	if h := s.Health(); h.Status != "ok" {
		t.Fatalf("steady intermittent health = %+v, want ok", h)
	}
	v = 25
	// The next two ticks include at least one fed one.
	clk.tick(m)
	clk.tick(m)
	f := m.Findings(5)
	if len(f) == 0 || f[0].Signal != "flaky" || f[0].Value != 25 {
		t.Fatalf("δ-violation after skipped ticks did not land: findings = %+v", f)
	}
	sig := m.Signals()[0]
	if sig.Updates < 2 || sig.Suppressed == 0 {
		t.Fatalf("signal accounting wrong after intermittent feeding: %+v", sig)
	}
}

// TestSelfStreamAllocBudget pins the steady-state cost of a
// self-monitoring tick on an engineless server: at most one small
// allocation per fed signal (a suppressed SourceNode.Process itself
// allocates nothing, see TestSourceProcessTraceAllocBudget; the slack
// covers a signal that happens to transmit) and nothing from the ring
// snapshot or the signal reads.
func TestSelfStreamAllocBudget(t *testing.T) {
	s := NewServer(testCatalog())
	m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	clk := newSelfClock(time.Second)
	// Warm until every feedable signal has bootstrapped and the ring
	// buffers exist.
	for i := 0; i < 10; i++ {
		clk.tick(m)
	}
	fed := 0
	for _, sig := range m.Signals() {
		if sig.Fed {
			fed++
		}
	}
	if fed == 0 {
		t.Fatal("no default signal feeds on a bare server; budget test is vacuous")
	}
	allocs := testing.AllocsPerRun(100, func() {
		clk.tick(m)
	})
	if allocs > float64(fed) {
		t.Fatalf("steady-state Tick allocates %.1f/op with %d fed signals, want <= %d (one per fed signal)", allocs, fed, fed)
	}
}

// TestSelfMonCloseIdempotent covers the ticker lifecycle: Start,
// concurrent ticks, double Close, and Server.Close stopping the
// monitor.
func TestSelfMonCloseIdempotent(t *testing.T) {
	s := NewServer(testCatalog())
	m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableSelfMon(SelfMonOptions{}); err == nil {
		t.Fatal("second EnableSelfMon did not fail")
	}
	m.Start()
	m.Start() // idempotent
	time.Sleep(20 * time.Millisecond)
	m.Close()
	m.Close() // idempotent
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.SelfMon() != m {
		t.Fatal("SelfMon accessor lost the monitor after Close")
	}
}

// TestSelfSignalsRegistered: every stock signal that reads a metric reads
// one a real server registers. A server configured as fully as dkf-server
// can be — durable, a registered stream, a UDP server on the shard
// engine, a TCP listener, self-monitoring — must hold each such signal's
// metric in its registry, so the catalogue carries no signal that no
// deployment can feed.
func TestSelfSignalsRegistered(t *testing.T) {
	s, err := Open(testCatalog(), t.TempDir(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustRegister(t, s, persistQuery)
	us, err := NewUDPServer(s, "127.0.0.1:0", UDPServerOptions{Engine: EngineOptions{Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Engine().Close()
	defer us.Close()
	startServer(t, s)
	if _, err := s.EnableSelfMon(SelfMonOptions{}); err != nil {
		t.Fatal(err)
	}
	registered := make(map[string]bool)
	for _, sr := range s.Telemetry().SeriesSnapshot() {
		registered[sr.Name] = true
	}
	for _, sig := range DefaultSelfSignals() {
		if sig.metric != "" && !registered[sig.metric] {
			t.Errorf("signal %s reads %s, which this server never registers", sig.Name, sig.metric)
		}
	}
}

// stallShard parks the worker of s's one-shard engine and returns what
// lets it go: a "stall" stream's alert callback blocks, and the post-apply
// hook runs it on the worker, so the worker stops draining its rings.
func stallShard(t *testing.T, s *Server) (release func()) {
	t.Helper()
	mustRegister(t, s, stream.Query{ID: "stall", SourceID: "stall", Delta: 1, Model: "constant"})
	if _, err := s.InstallFor("stall"); err != nil {
		t.Fatal(err)
	}
	entered, released := make(chan struct{}), make(chan struct{})
	if err := s.RegisterAlert(Alert{ID: "stall", QueryID: "stall"}, func(AlertEvent) { close(entered); <-released }); err != nil {
		t.Fatal(err)
	}
	u := core.Update{SourceID: "stall", Values: []float64{1}, Bootstrap: true}
	s.Engine().Producer().Offer(0, &u)
	<-entered
	return func() { close(released) }
}

// tryOffer claims shard's next slot on p, fills it with a copy of u and
// commits it — what the UDP reader does for one datagram update. False when the
// ring shed it.
func tryOffer(p *engine.Producer, shard int, u *core.Update) bool {
	slot := p.Next(shard)
	if slot == nil {
		return false
	}
	vals := slot.Values
	*slot = *u
	slot.Values = append(vals[:0], u.Values...)
	p.Commit(shard)
	return true
}

// TestSelfMonOverloadE2E is the acceptance end-to-end at the verdict
// level: a real ring-shed burst on the ingest engine flips the verdict
// ok → degraded with shed_rate as the machine-readable reason, and the
// verdict recovers to ok once the burst ages out of the rate window.
// (The HTTP layer over the same scenario is TestHealthzOverloadHTTP.)
func TestSelfMonOverloadE2E(t *testing.T) {
	s := NewServer(testCatalog())
	e := s.StartEngine(EngineOptions{Shards: 1, RingSize: 8})
	defer e.Close()
	m, err := s.EnableSelfMon(SelfMonOptions{
		Every: time.Second, RateWindow: 5 * time.Second, Recover: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newSelfClock(time.Second)
	for i := 0; i < 5; i++ {
		clk.tick(m)
	}
	if h := s.Health(); h.Status != "ok" {
		t.Fatalf("pre-overload health = %+v, want ok", h)
	}

	// Stall the only shard worker, then slam the ring: Next sheds
	// once the 8 slots fill, driving dkf_engine_ring_dropped_total.
	release := stallShard(t, s)
	p := e.Producer()
	u := &core.Update{SourceID: "burst", Seq: 1, Time: 1, Values: []float64{1}, Bootstrap: true}
	for i := 0; i < 200; i++ {
		tryOffer(p, 0, u)
	}
	p.Flush()
	dropped := e.Stats()[0].Dropped
	release()
	if dropped < 50 {
		t.Fatalf("ring shed only %d updates; overload not induced", dropped)
	}

	clk.tick(m)
	h := s.Health()
	if h.Status != "degraded" {
		t.Fatalf("health after shed burst = %+v, want degraded", h)
	}
	var reason *HealthReason
	for i := range h.Reasons {
		if h.Reasons[i].Signal == "shed_rate" {
			reason = &h.Reasons[i]
		}
	}
	if reason == nil {
		t.Fatalf("degraded without shed_rate reason: %+v", h.Reasons)
	}
	if reason.Kind != "delta_violation" || reason.Value <= reason.Delta {
		t.Fatalf("shed_rate reason evidence inconsistent: %+v", reason)
	}

	// As the burst ages out of the 5s rate window the signal decays
	// (including the sharp drop when the jump slot leaves the window,
	// which is itself a δ-violation); Recover quiet ticks later the
	// verdict is ok again.
	recovered := false
	for i := 0; i < 50; i++ {
		clk.tick(m)
		if s.Health().Status == "ok" {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("verdict never recovered after overload; health = %+v", s.Health())
	}
	if f := m.Findings(50); len(f) == 0 {
		t.Fatal("overload produced no findings")
	}
}

// TestSelfMonSeesEngineAtScale registers the streams first and the engine
// and the monitor after — dkf-server's order, and every recovered durable
// server's — on a server with 1,100 streams behind the per-stream table:
// the monitor must feed the overload signals the verdict rests on.
func TestSelfMonSeesEngineAtScale(t *testing.T) {
	s := NewServer(testCatalog())
	for i := 0; i < 1100; i++ {
		mustRegister(t, s, stream.Query{ID: fmt.Sprintf("q%d", i), SourceID: fmt.Sprintf("s%04d", i), Delta: 1, Model: "constant"})
	}
	e := s.StartEngine(EngineOptions{Shards: 1, RingSize: 8})
	defer e.Close()
	m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	clk := newSelfClock(time.Second)
	for i := 0; i < 3; i++ {
		clk.tick(m)
	}
	fed := make(map[string]bool)
	for _, sig := range m.Signals() {
		fed[sig.Name] = sig.Fed
	}
	for _, name := range []string{"shed_rate", "ring_hwm_growth", "ingest_rate"} {
		if !fed[name] {
			t.Errorf("signal %s is not fed", name)
		}
	}
}

// signalValue is the named signal's value at the latest tick, and whether
// it was fed.
func signalValue(t *testing.T, m *SelfMonitor, name string) (float64, bool) {
	t.Helper()
	for _, v := range m.Signals() {
		if v.Name == name {
			return v.Value, v.Fed
		}
	}
	t.Fatalf("no signal %s", name)
	return 0, false
}

// TestSignalWindowRate: a rate signal keeps RateWindow/Every + 1 samples
// of its family's total and reads the exact per-second rise over the
// trailing window, through the ring wrapping round; an error rate leaves
// out the instances labelled kind="peer_closed"; neither is fed before two
// samples.
func TestSignalWindowRate(t *testing.T) {
	s := NewServer(testCatalog())
	reg := s.Telemetry()
	ops := [2]*telemetry.Counter{reg.Counter("test_ops_total", "", telemetry.L("op", "a")), reg.Counter("test_ops_total", "", telemetry.L("op", "b"))}
	closed := reg.Counter("test_errs_total", "", telemetry.L("kind", "peer_closed"))
	failed := reg.Counter("test_errs_total", "", telemetry.L("kind", "io"))
	m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Second, RateWindow: 5 * time.Second, Signals: []SelfSignal{
		{Name: "ops", Model: "linear", Delta: 1e9, kind: sigRate, metric: "test_ops_total"},
		{Name: "errs", Delta: 1e9, kind: sigErrorRate, metric: "test_errs_total"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	clk := newSelfClock(time.Second)
	clk.tick(m)
	if _, fed := signalValue(t, m, "ops"); fed {
		t.Fatal("a rate was fed from one sample")
	}
	for i := 0; i < 10; i++ {
		ops[i%2].Add(10)
		closed.Add(100)
		failed.Add(3)
		clk.tick(m)
		if v, fed := signalValue(t, m, "ops"); !fed || v != 10 {
			t.Fatalf("tick %d: ops rate %v (fed %v), want exactly 10/s", i, v, fed)
		}
		if v, _ := signalValue(t, m, "errs"); v != 3 {
			t.Fatalf("tick %d: error rate %v, want 3/s without the peer closes", i, v)
		}
	}
	for i, want := range []float64{8, 6, 4, 2, 0, 0} { // the last rise leaves the 5 s window a second at a time
		clk.tick(m)
		if v, _ := signalValue(t, m, "ops"); v != want {
			t.Fatalf("quiet tick %d: ops rate %v, want %v", i, v, want)
		}
	}
}

// TestSignalRateWindowLength: a rate reads its family's rise over the
// trailing RateWindow alone — a 5 s window averages the last tick's burst
// with the steady ticks before it, a 2 s window sees only the latest two
// — and a signal whose family nobody registered is never fed.
func TestSignalRateWindowLength(t *testing.T) {
	for _, c := range []struct {
		window time.Duration
		want   float64
	}{{5 * time.Second, (4*10 + 40) / 5.0}, {2 * time.Second, (10 + 40) / 2.0}} {
		s := NewServer(testCatalog())
		ctr := s.Telemetry().Counter("test_ops_total", "")
		m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Second, RateWindow: c.window, Signals: []SelfSignal{
			{Name: "ops", Delta: 1e9, kind: sigRate, metric: "test_ops_total"},
			{Name: "nope", Delta: 1e9, kind: sigRate, metric: "test_nobody_total"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		clk := newSelfClock(time.Second)
		clk.tick(m) // baseline
		for i := 0; i < 5; i++ {
			ctr.Add(10)
			clk.tick(m)
		}
		if v, fed := signalValue(t, m, "ops"); !fed || v != 10 {
			t.Fatalf("%v window: ops rate %v (fed %v), want exactly 10/s", c.window, v, fed)
		}
		ctr.Add(40)
		clk.tick(m)
		if v, _ := signalValue(t, m, "ops"); v != c.want {
			t.Fatalf("%v window: ops rate %v after a burst, want %v", c.window, v, c.want)
		}
		if _, fed := signalValue(t, m, "nope"); fed {
			t.Fatalf("%v window: a signal on an unregistered family was fed", c.window)
		}
	}
}

// TestSignalWindowWrap: a 3 s window at 1 s ticks is a ring of 4 slots;
// after 20 ticks only the newest 4 samples remain and the rate is the
// mean of the last three rises. A tick that comes late still reads
// against the sample before it, over the whole gap.
func TestSignalWindowWrap(t *testing.T) {
	s := NewServer(testCatalog())
	ctr := s.Telemetry().Counter("test_n_total", "")
	m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Second, RateWindow: 3 * time.Second, Signals: []SelfSignal{
		{Name: "n", Delta: 1e9, kind: sigRate, metric: "test_n_total"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	clk := newSelfClock(time.Second)
	for i := 0; i < 20; i++ {
		ctr.Add(int64(i))
		clk.tick(m)
	}
	if w := &m.streams[0].win; len(w.at) != 4 || w.n != 20 {
		t.Fatalf("window has %d slots after %d pushes, want 4 after 20", len(w.at), w.n)
	}
	if v, fed := signalValue(t, m, "n"); !fed || v != float64(17+18+19)/3 {
		t.Fatalf("wrapped rate %v (fed %v), want 18/s", v, fed)
	}
	ctr.Add(50)
	clk.t = clk.t.Add(9 * time.Second) // the next tick lands 10 s on
	clk.tick(m)
	if v, fed := signalValue(t, m, "n"); !fed || v != 5 {
		t.Fatalf("rate across a 10 s gap %v (fed %v), want 50 over 10 s", v, fed)
	}
}

// TestSignalRateOverTable: a rate signal on a table's counter column reads
// the column total — every row's rise, one owner walk per read — beside a
// counter registered after the table; a row that vanishes and comes back
// counting from zero never drives the rate negative; a gauge column is no
// total and its signal is not fed.
func TestSignalRateOverTable(t *testing.T) {
	const rows = 40
	counts := make([]float64, rows)
	live := make([]bool, rows)
	labels := make([]string, rows)
	for i := range labels {
		labels[i] = fmt.Sprint("s", i)
	}
	var vals [2]float64
	walks := 0
	s := NewServer(testCatalog())
	reg := s.Telemetry()
	reg.Table("source", []telemetry.Column{{Name: "test_rows_total", Counter: true}, {Name: "test_rows_level"}},
		func(row func(slot int, label string, vals []float64)) {
			walks++
			for i, on := range live {
				if on {
					vals[0], vals[1] = counts[i], 7
					row(i, labels[i], vals[:])
				}
			}
		})
	late := reg.Counter("test_late_total", "")
	for i := range live {
		live[i] = true
	}
	m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Second, RateWindow: 2 * time.Second, Signals: []SelfSignal{
		{Name: "rows", Delta: 1e9, kind: sigRate, metric: "test_rows_total"},
		{Name: "late", Delta: 1e9, kind: sigRate, metric: "test_late_total"},
		{Name: "level", Delta: 1e9, kind: sigRate, metric: "test_rows_level"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	clk := newSelfClock(time.Second)
	step := func(per float64) {
		for i := range counts {
			counts[i] += per
		}
		late.Inc()
		clk.tick(m)
	}
	step(100) // baseline
	step(1)
	step(1)
	if walks != 2*3 { // the rows and level signals read the table once a tick each
		t.Fatalf("3 ticks walked the table's owner %d times, want 6", walks)
	}
	if v, fed := signalValue(t, m, "rows"); !fed || v != rows {
		t.Fatalf("column total rate %v (fed %v), want %d/s", v, fed, rows)
	}
	if v, fed := signalValue(t, m, "late"); !fed || v != 1 {
		t.Fatalf("rate of the counter registered after the table %v (fed %v), want 1/s", v, fed)
	}
	if _, fed := signalValue(t, m, "level"); fed {
		t.Fatal("a gauge column was read as a total")
	}
	live[3] = false
	step(1)
	if v, _ := signalValue(t, m, "rows"); v != (rows+rows-1)/2.0 {
		t.Fatalf("rate as a row vanishes %v, want %v: it keeps what it added", v, (rows+rows-1)/2.0)
	}
	live[3], counts[3] = true, 0 // registered again, counting from zero
	step(1)
	if v, _ := signalValue(t, m, "rows"); v != rows-1 {
		t.Fatalf("rate across a row's drop and return %v, want %d/s: the other rows' rise, never negative", v, rows-1)
	}
}

// TestSignalWindowP99: a p99 signal reads the merged buckets its family's
// instances gained within the trailing window — an old slow observation
// ages out — and is not fed while the window holds none.
func TestSignalWindowP99(t *testing.T) {
	s := NewServer(testCatalog())
	reg := s.Telemetry()
	a, b := reg.Histogram("test_lat_ns", "", telemetry.L("op", "a")), reg.Histogram("test_lat_ns", "", telemetry.L("op", "b"))
	m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Second, RateWindow: 3 * time.Second, Signals: []SelfSignal{
		{Name: "p99", Delta: 1e9, kind: sigP99Ms, metric: "test_lat_ns"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	clk := newSelfClock(time.Second)
	clk.tick(m)
	a.Observe(1_000_000_000) // one second
	clk.tick(m)
	if v, fed := signalValue(t, m, "p99"); !fed || v < 1000 || v > 2000 {
		t.Fatalf("p99 %v ms (fed %v), want the one-second observation's bucket", v, fed)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 200; j++ {
			b.Observe(1_000_000) // one millisecond
		}
		clk.tick(m)
	}
	if v, fed := signalValue(t, m, "p99"); !fed || v < 1 || v > 2 {
		t.Fatalf("p99 %v ms (fed %v), want the millisecond bucket once the slow one aged out", v, fed)
	}
	for i := 0; i < 3; i++ {
		clk.tick(m)
	}
	if _, fed := signalValue(t, m, "p99"); fed {
		t.Fatal("p99 fed from a window with no observation")
	}
}

// BenchmarkSelfMonTick is one tick of the stock signals beside 0 and
// 10,000 other registered counter series: a signal reads its own family
// alone, so the two cost the same.
func BenchmarkSelfMonTick(b *testing.B) {
	for _, series := range []int{0, 10_000} {
		b.Run(fmt.Sprintf("series=%d", series), func(b *testing.B) {
			s := NewServer(testCatalog())
			for i := 0; i < series; i++ {
				s.Telemetry().Counter("bench_other_total", "", telemetry.L("i", fmt.Sprint(i))).Inc()
			}
			m, err := s.EnableSelfMon(SelfMonOptions{Every: time.Second})
			if err != nil {
				b.Fatal(err)
			}
			clk := newSelfClock(time.Second)
			for i := 0; i < 3; i++ {
				clk.tick(m)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clk.tick(m)
			}
		})
	}
}
