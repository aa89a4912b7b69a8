package dsms

import (
	"errors"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"streamkf/internal/core"
	"streamkf/internal/model"
	"streamkf/internal/stream"
	"streamkf/internal/telemetry"
	"streamkf/internal/telemetry/history"
	"streamkf/internal/trace"
)

// Self-monitoring: the server watches its own telemetry with the same
// machinery it sells to clients. Each tracked health signal — a windowed
// rate or quantile pulled from the history ring — is fed into a DKF
// pair (core.SourceNode mirror + core.ServerNode) exactly like a remote
// sensor stream: the filter predicts the signal, readings within δ of
// the prediction are suppressed, and only δ-violating innovations —
// the moments the server's behavior diverges from its own model of
// itself — become structured health findings. A healthy steady-state
// server therefore records almost nothing, and /healthz verdicts rest
// on filter evidence (prediction, residual, δ, NIS) rather than static
// thresholds alone.

// SelfSignal describes one tracked health signal.
type SelfSignal struct {
	// Name identifies the signal in findings and on /statusz.
	Name string
	// Help is the one-line description shown on /statusz.
	Help string
	// Model selects the filter dynamics: "constant" for signals that
	// should hold a level (error rates, latency quantiles), "linear"
	// for signals with legitimate drift (throughput, heap).
	Model string
	// Delta is the suppression threshold in the signal's own units: a
	// reading further than Delta from the filter's prediction is a
	// finding.
	Delta float64
	// Critical marks signals whose active findings make the verdict
	// unhealthy rather than degraded.
	Critical bool
	// Read produces the current signal value. ok=false means the
	// signal has no value this tick (metric not registered, window not
	// yet covered); the tick is skipped without advancing the filter.
	Read func(m *SelfMonitor) (float64, bool)
}

// SelfMonOptions configure EnableSelfMon.
type SelfMonOptions struct {
	// Window is the history ring's retention span (default 2m).
	Window time.Duration
	// Every is the snapshot-and-evaluate cadence (default 1s).
	Every time.Duration
	// RateWindow is the trailing window the default signals compute
	// rates and quantiles over (default 30s).
	RateWindow time.Duration
	// Recover is how many ticks a δ-violation keeps its signal active
	// (default 5): the verdict returns to ok only after Recover quiet
	// ticks, so probes don't flap on a single spike.
	Recover int
	// Signals is the tracked signal set; nil means DefaultSelfSignals.
	Signals []SelfSignal
	// Findings caps the retained finding ring (default 64).
	Findings int
}

func (o *SelfMonOptions) defaults() {
	if o.Window <= 0 {
		o.Window = 2 * time.Minute
	}
	if o.Every <= 0 {
		o.Every = time.Second
	}
	if o.RateWindow <= 0 {
		o.RateWindow = 30 * time.Second
	}
	if o.Recover <= 0 {
		o.Recover = 5
	}
	if o.Findings <= 0 {
		o.Findings = 64
	}
}

// HealthFinding is one structured self-monitoring event: a δ-violating
// innovation or a whiteness failure on a self-stream, with the filter
// evidence that produced it.
type HealthFinding struct {
	Time     time.Time `json:"time"`
	Signal   string    `json:"signal"`
	Kind     string    `json:"kind"` // "delta_violation" | "whiteness"
	Critical bool      `json:"critical,omitempty"`
	// Value is the observed signal value; Pred the filter's prediction
	// for it; Residual their distance, which exceeded Delta.
	Value    float64 `json:"value"`
	Pred     float64 `json:"pred"`
	Residual float64 `json:"residual"`
	Delta    float64 `json:"delta"`
	// NIS scores the innovation against the filter's own uncertainty
	// (0 when not computed).
	NIS float64 `json:"nis,omitempty"`
	// Whiteness is the lag-1 innovation autocorrelation, set on
	// whiteness findings.
	Whiteness float64 `json:"whiteness,omitempty"`
}

// HealthReason explains one active signal in a non-ok verdict.
type HealthReason struct {
	Signal    string  `json:"signal"`
	Kind      string  `json:"kind"`
	Critical  bool    `json:"critical,omitempty"`
	Value     float64 `json:"value"`
	Pred      float64 `json:"pred"`
	Residual  float64 `json:"residual"`
	Delta     float64 `json:"delta"`
	Whiteness float64 `json:"whiteness,omitempty"`
	// TicksAgo is how many evaluation ticks since the violation; the
	// signal deactivates after Recover quiet ticks.
	TicksAgo int64 `json:"ticks_ago"`
}

// HealthStatus is the /healthz verdict document.
type HealthStatus struct {
	Status        string         `json:"status"` // ok | degraded | unhealthy
	UptimeSeconds float64        `json:"uptime_seconds"`
	Reasons       []HealthReason `json:"reasons,omitempty"`
}

// Verdict levels, ordered by severity.
const (
	verdictOK int32 = iota
	verdictDegraded
	verdictUnhealthy
)

func verdictName(v int32) string {
	switch v {
	case verdictDegraded:
		return "degraded"
	case verdictUnhealthy:
		return "unhealthy"
	}
	return "ok"
}

// selfStream is one signal's DKF pair plus its finding state and a
// small fixed ring of recent values for the /statusz sparkline.
type selfStream struct {
	sig SelfSignal
	src *core.SourceNode
	srv *core.ServerNode

	seq  int        // reading index; advances only on fed ticks
	vals [1]float64 // reusable Reading.Values backing array

	fed          bool    // the latest tick produced a value
	value        float64 // latest read value
	lastViolTick int64   // monitor tick of the latest δ-violation (0: none)
	viol         trace.DecisionInfo
	whitenessBad bool

	samples [120]float64
	sHead   int // next write index
	sCount  int
}

func (st *selfStream) record(v float64) {
	st.samples[st.sHead] = v
	st.sHead = (st.sHead + 1) % len(st.samples)
	if st.sCount < len(st.samples) {
		st.sCount++
	}
}

// SelfMonitor drives the server's self-observation: a history ring
// snapshotted every tick, the self-stream filters fed from it, and the
// finding ring and verdict the admin endpoints surface. Tick may be
// driven manually (tests) or by Start's background ticker.
type SelfMonitor struct {
	server *Server
	ring   *history.Ring
	opts   SelfMonOptions

	// verdict is stored atomically so the dkf_selfmon_verdict gauge
	// func can read it while Tick holds mu (the ring snapshot inside
	// Tick evaluates every registered gauge func).
	verdict       atomic.Int32
	findingsTotal *telemetry.Counter

	mu       sync.Mutex
	streams  []*selfStream
	tick     int64
	findings []HealthFinding // fixed-capacity ring
	fNext    int
	fCount   int
	started  bool
	closed   bool

	stop chan struct{}
	done chan struct{}
}

// EnableSelfMon attaches a self-monitor to the server: a history ring
// over its telemetry registry and one DKF pair per signal. No
// goroutine is started — call Start for the background ticker, or
// drive Tick manually. Fails when already enabled.
func (s *Server) EnableSelfMon(opts SelfMonOptions) (*SelfMonitor, error) {
	opts.defaults()
	if opts.Signals == nil {
		opts.Signals = DefaultSelfSignals()
	}
	s.selfMu.Lock()
	defer s.selfMu.Unlock()
	if s.selfmon != nil {
		return nil, errors.New("dsms: self-monitor already enabled")
	}
	m := &SelfMonitor{
		server:   s,
		ring:     history.New(s.tel.reg, history.Options{Every: opts.Every, Window: opts.Window}),
		opts:     opts,
		findings: make([]HealthFinding, opts.Findings),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	const q, r = 0.05, 0.05 // the catalog's noise convention
	for _, sig := range opts.Signals {
		mdl := model.Constant(1, q, r)
		if sig.Model == "linear" {
			mdl = model.Linear(1, opts.Every.Seconds(), q, r)
		}
		cfg := core.Config{SourceID: "self/" + sig.Name, Model: mdl, Delta: sig.Delta}
		src, err := core.NewSourceNode(cfg)
		if err != nil {
			return nil, err
		}
		srv, err := core.NewServerNode(cfg)
		if err != nil {
			return nil, err
		}
		m.streams = append(m.streams, &selfStream{sig: sig, src: src, srv: srv})
	}
	m.findingsTotal = s.tel.reg.Counter("dkf_selfmon_findings_total", "Self-monitoring health findings recorded.")
	s.tel.reg.GaugeFunc("dkf_selfmon_verdict", "Self-monitoring verdict: 0 ok, 1 degraded, 2 unhealthy.",
		func() float64 { return float64(m.verdict.Load()) })
	s.tel.reg.GaugeFunc("dkf_selfmon_signals", "Self-monitoring signals tracked.",
		func() float64 { return float64(len(m.streams)) })
	s.selfmon = m
	return m, nil
}

// SelfMon returns the attached self-monitor, nil when not enabled.
func (s *Server) SelfMon() *SelfMonitor {
	s.selfMu.Lock()
	defer s.selfMu.Unlock()
	return s.selfmon
}

// Health returns the server's current health verdict. Without a
// self-monitor the server has no evidence of trouble and reports ok.
func (s *Server) Health() HealthStatus {
	m := s.SelfMon()
	if m == nil {
		return HealthStatus{Status: verdictName(verdictOK), UptimeSeconds: time.Since(epoch).Seconds()}
	}
	return m.Health()
}

// History returns the monitor's history ring (the /metricsz backend).
func (m *SelfMonitor) History() *history.Ring { return m.ring }

// Options returns the effective configuration.
func (m *SelfMonitor) Options() SelfMonOptions { return m.opts }

// Start launches the background ticker driving Tick every opts.Every.
// Idempotent; Close stops it.
func (m *SelfMonitor) Start() {
	m.mu.Lock()
	if m.started || m.closed {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.opts.Every)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case now := <-t.C:
				m.Tick(now)
			}
		}
	}()
}

// Close stops the background ticker, if any, and waits for it to exit.
// The monitor's state stays readable after Close.
func (m *SelfMonitor) Close() {
	m.mu.Lock()
	started := m.started
	if m.closed {
		m.mu.Unlock()
		if started {
			<-m.done
		}
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	if started {
		<-m.done
	}
}

// Tick runs one self-observation cycle: snapshot the registry into the
// history ring, read every signal, feed the fed ones through their DKF
// pairs, turn δ-violations and fresh whiteness failures into findings,
// and refresh the verdict. Steady state (all signals suppressed) costs
// one small allocation per fed signal — SourceNode.Process's estimate
// copy, the contract pinned by TestSelfStreamAllocBudget.
func (m *SelfMonitor) Tick(now time.Time) {
	m.ring.Snapshot(now)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	t := float64(now.UnixNano()) / 1e9
	for _, st := range m.streams {
		v, ok := st.sig.Read(m)
		st.fed = ok
		if !ok {
			continue
		}
		st.value = v
		st.record(v)
		// The reading index advances only when the signal is fed: the
		// mirror predicts once per Process call, and the server-side
		// AdvanceTo(u.Seq) must replay exactly that many predicts.
		st.seq++
		st.vals[0] = v
		u, _, err := st.src.Process(stream.Reading{Seq: st.seq, Time: t, Values: st.vals[:]})
		if err != nil {
			continue
		}
		if u != nil {
			if err := st.srv.ApplyUpdate(*u); err == nil && !u.Bootstrap {
				st.lastViolTick = m.tick
				st.viol = st.src.LastDecision()
				m.addFinding(HealthFinding{
					Time: now, Signal: st.sig.Name, Kind: "delta_violation", Critical: st.sig.Critical,
					Value: v, Pred: st.viol.Pred, Residual: st.viol.Residual, Delta: st.sig.Delta, NIS: st.viol.NIS,
				})
			}
		}
		// Sustained one-sided whiteness failure: the self-stream's
		// model no longer explains the signal. Record on the healthy →
		// unhealthy transition only; the active flag persists while
		// the window stays bad.
		h := st.srv.Health()
		bad := h.Ready && !h.Healthy
		if bad && !st.whitenessBad {
			m.addFinding(HealthFinding{
				Time: now, Signal: st.sig.Name, Kind: "whiteness", Critical: st.sig.Critical,
				Value: v, Pred: st.viol.Pred, Residual: st.viol.Residual, Delta: st.sig.Delta, Whiteness: h.Whiteness,
			})
		}
		st.whitenessBad = bad
	}
	m.verdict.Store(m.verdictLocked())
}

// addFinding appends into the fixed finding ring. Caller holds mu.
func (m *SelfMonitor) addFinding(f HealthFinding) {
	m.findings[m.fNext] = f
	m.fNext = (m.fNext + 1) % len(m.findings)
	if m.fCount < len(m.findings) {
		m.fCount++
	}
	m.findingsTotal.Inc()
}

// active reports whether the stream contributes to a non-ok verdict:
// a δ-violation within the last Recover ticks, or a currently-bad
// whiteness window. Caller holds mu.
func (m *SelfMonitor) active(st *selfStream) bool {
	if st.whitenessBad {
		return true
	}
	return st.lastViolTick > 0 && m.tick-st.lastViolTick < int64(m.opts.Recover)
}

// verdictLocked folds the streams into a verdict. Caller holds mu.
func (m *SelfMonitor) verdictLocked() int32 {
	v := verdictOK
	for _, st := range m.streams {
		if !m.active(st) {
			continue
		}
		if st.sig.Critical {
			return verdictUnhealthy
		}
		v = verdictDegraded
	}
	return v
}

// Health assembles the verdict document with one reason per active
// signal. Query path; allocates.
func (m *SelfMonitor) Health() HealthStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := HealthStatus{Status: verdictName(m.verdictLocked()), UptimeSeconds: time.Since(epoch).Seconds()}
	for _, st := range m.streams {
		if !m.active(st) {
			continue
		}
		r := HealthReason{
			Signal: st.sig.Name, Kind: "delta_violation", Critical: st.sig.Critical,
			Value: st.value, Pred: st.viol.Pred, Residual: st.viol.Residual, Delta: st.sig.Delta,
			TicksAgo: m.tick - st.lastViolTick,
		}
		if st.whitenessBad {
			h := st.srv.Health()
			r.Whiteness = h.Whiteness
			if st.lastViolTick == 0 || m.tick-st.lastViolTick >= int64(m.opts.Recover) {
				r.Kind = "whiteness"
				r.TicksAgo = 0
			}
		}
		out.Reasons = append(out.Reasons, r)
	}
	return out
}

// Findings returns up to limit retained findings, newest first.
func (m *SelfMonitor) Findings(limit int) []HealthFinding {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.fCount
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]HealthFinding, n)
	for i := 0; i < n; i++ {
		idx := (m.fNext - 1 - i + len(m.findings)) % len(m.findings)
		out[i] = m.findings[idx]
	}
	return out
}

// SelfSignalView is one signal's state for /statusz.
type SelfSignalView struct {
	Name         string    `json:"name"`
	Help         string    `json:"help,omitempty"`
	Model        string    `json:"model"`
	Delta        float64   `json:"delta"`
	Critical     bool      `json:"critical,omitempty"`
	Fed          bool      `json:"fed"`
	Value        float64   `json:"value"`
	Updates      int       `json:"updates"`    // transmitted (δ-violating + bootstrap) readings
	Suppressed   int       `json:"suppressed"` // within-δ readings
	Active       bool      `json:"active"`
	WhitenessBad bool      `json:"whiteness_bad,omitempty"`
	Samples      []float64 `json:"samples,omitempty"` // recent values, oldest first
}

// Signals returns every signal's current state, in registration order.
// Query path; allocates.
func (m *SelfMonitor) Signals() []SelfSignalView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SelfSignalView, len(m.streams))
	for i, st := range m.streams {
		stats := st.src.Stats()
		mdl := st.sig.Model
		if mdl == "" {
			mdl = "constant"
		}
		v := SelfSignalView{
			Name: st.sig.Name, Help: st.sig.Help, Model: mdl, Delta: st.sig.Delta,
			Critical: st.sig.Critical, Fed: st.fed, Value: st.value,
			Updates: stats.Updates, Suppressed: stats.Suppressed,
			Active: m.active(st), WhitenessBad: st.whitenessBad,
		}
		if st.sCount > 0 {
			v.Samples = make([]float64, st.sCount)
			for j := 0; j < st.sCount; j++ {
				v.Samples[j] = st.samples[(st.sHead-st.sCount+j+len(st.samples))%len(st.samples)]
			}
		}
		out[i] = v
	}
	return out
}

// DefaultSelfSignals is the stock signal catalog: the server health
// dimensions called out in DESIGN.md §15. Signals whose backing metric
// is absent on a given server (no engine, no WAL, no UDP lanes) simply
// never feed — Read returns ok=false and the filter stays cold.
func DefaultSelfSignals() []SelfSignal {
	rate := func(metric string) func(m *SelfMonitor) (float64, bool) {
		return func(m *SelfMonitor) (float64, bool) {
			return m.ring.Rate(metric, m.opts.RateWindow)
		}
	}
	p99ms := func(metric string) func(m *SelfMonitor) (float64, bool) {
		return func(m *SelfMonitor) (float64, bool) {
			v, ok := m.ring.WindowQuantile(metric, m.opts.RateWindow, 0.99)
			return v / 1e6, ok
		}
	}
	// Preallocated so the variadic pass in Read allocates nothing.
	peerClosed := []telemetry.Label{telemetry.L("kind", "peer_closed")}
	heapSample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	return []SelfSignal{
		{Name: "ingest_rate", Help: "Updates folded into server filters per second, all sources.",
			Model: "linear", Delta: 500, Read: rate("dkf_server_updates_total")},
		{Name: "shed_rate", Help: "Updates shed per second because a shard ring was full.",
			Model: "constant", Delta: 0.5, Read: rate("dkf_engine_ring_dropped_total")},
		{Name: "ring_hwm_growth", Help: "Shard ring high-water-mark growth per second.",
			Model: "constant", Delta: 8, Read: rate("dkf_engine_ring_depth_hwm")},
		{Name: "stepall_p99_ms", Help: "AdvanceAll batch latency p99 over the rate window, milliseconds.",
			Model: "constant", Delta: 20, Read: p99ms("dkf_server_stepall_ns")},
		{Name: "wal_fsync_p99_ms", Help: "WAL fsync latency p99 over the rate window, milliseconds.",
			Model: "constant", Delta: 10, Read: p99ms("streamkf_wal_fsync_duration_nanos")},
		{Name: "wal_error_rate", Help: "Shard batch WAL commit failures per second.",
			Model: "constant", Delta: 0.1, Critical: true, Read: rate("dkf_engine_wal_errors_total")},
		{Name: "wire_error_rate", Help: "Wire protocol failures per second, normal peer closes excluded.",
			Model: "constant", Delta: 5, Read: func(m *SelfMonitor) (float64, bool) {
				all, ok := m.ring.Rate("dkf_wire_errors_total", m.opts.RateWindow)
				if !ok {
					return 0, false
				}
				pc, _ := m.ring.Rate("dkf_wire_errors_total", m.opts.RateWindow, peerClosed...)
				return all - pc, true
			}},
		{Name: "ack_rtt_p99_ms", Help: "Agent ack round-trip p99 over the rate window, milliseconds.",
			Model: "constant", Delta: 50, Read: p99ms("dkf_agent_ack_rtt_ns")},
		{Name: "lane_rx_rate", Help: "UDP datagrams received per second across reader lanes.",
			Model: "linear", Delta: 1000, Read: rate("dkf_udp_lane_datagrams_rx_total")},
		{Name: "conns_active", Help: "Open TCP wire connections.",
			Model: "linear", Delta: 64, Read: func(m *SelfMonitor) (float64, bool) {
				return m.ring.Latest("dkf_wire_connections_active")
			}},
		{Name: "goroutines", Help: "Live goroutines.",
			Model: "linear", Delta: 200, Read: func(m *SelfMonitor) (float64, bool) {
				return float64(runtime.NumGoroutine()), true
			}},
		{Name: "heap_mb", Help: "Live heap object bytes, MiB.",
			Model: "linear", Delta: 256, Read: func(m *SelfMonitor) (float64, bool) {
				metrics.Read(heapSample)
				if heapSample[0].Value.Kind() != metrics.KindUint64 {
					return 0, false
				}
				return float64(heapSample[0].Value.Uint64()) / (1 << 20), true
			}},
	}
}
