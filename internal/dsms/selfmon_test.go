package dsms

import (
	"fmt"
	"testing"
	"time"

	"streamkf/internal/core"
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
// can be — durable, a registered stream, UDP reader lanes on the shard
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
	us, err := NewUDPServer(s, "127.0.0.1:0", UDPServerOptions{Lanes: 2, Engine: EngineOptions{Shards: 1}})
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

	// Stall the only shard worker, then slam the ring: TryOffer sheds
	// once the 8 slots fill, driving dkf_engine_ring_dropped_total.
	release := stallShard(t, s)
	p := e.Producer()
	u := &core.Update{SourceID: "burst", Seq: 1, Time: 1, Values: []float64{1}, Bootstrap: true}
	for i := 0; i < 200; i++ {
		p.TryOffer(0, u)
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
// server's — on a server with more streams than the history ring once had
// room for behind the per-stream table: the ring must shed nothing, track
// the engine's own series, and feed the overload signals the verdict rests
// on.
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
	if _, _, _, _, dropped := m.History().Meta(); dropped != 0 {
		t.Errorf("the history ring dropped %d series past its cap", dropped)
	}
	if n := len(m.History().Series()); n > 512 {
		t.Errorf("the history ring tracks %d series over 1,100 streams, want a few hundred at most", n)
	}
	if _, ok := m.History().Latest("dkf_engine_ring_dropped_total", telemetry.L("shard", "0")); !ok {
		t.Error("the ring does not track dkf_engine_ring_dropped_total{shard=\"0\"}")
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
