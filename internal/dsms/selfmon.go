package dsms

import (
	"cmp"
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
	"streamkf/internal/trace"
)

// Self-monitoring: the server watches its own telemetry with the same
// machinery it sells to clients. Each tracked health signal — a windowed
// rate or quantile of one metric family, over samples the signal keeps
// itself — is fed into a DKF pair (core.SourceNode mirror +
// core.ServerNode) exactly like a remote sensor stream: the filter
// predicts the signal, readings within δ of the prediction are
// suppressed, and only δ-violating innovations — the moments the
// server's behavior diverges from its own model of itself — become
// structured health findings. A healthy steady-state
// server therefore records almost nothing, and /healthz verdicts rest
// on filter evidence (prediction, residual, δ, NIS) rather than static
// thresholds alone.

// SelfSignal describes one tracked health signal.
type SelfSignal struct {
	// Name identifies the signal in findings and on /statusz.
	Name string `json:"name"`
	// Help is the one-line description served on /statusz.
	Help string `json:"help"`
	// Model selects the filter dynamics: "constant" for signals that
	// should hold a level (error rates, latency quantiles), "linear"
	// for signals with legitimate drift (throughput, heap).
	Model string `json:"model"`
	// Delta is the suppression threshold in the signal's own units: a
	// reading further than Delta from the filter's prediction is a
	// finding.
	Delta float64 `json:"delta"`
	// Critical marks signals whose active findings make the verdict
	// unhealthy rather than degraded.
	Critical bool `json:"critical"`
	// Read produces the current signal value. ok=false means the
	// signal has no value this tick (metric not registered, window not
	// yet covered); the tick is skipped without advancing the filter.
	// The stock signals leave it nil: they name how (kind) and from which
	// metric family the monitor reads them.
	Read   func(m *SelfMonitor) (float64, bool) `json:"-"`
	kind   signalKind
	metric string
}

// signalKind is how SelfMonitor.read turns a stock signal's metric into a value.
type signalKind int

const (
	sigCustom     signalKind = iota // SelfSignal.Read
	sigRate                         // per-second rate over the rate window, the family summed
	sigErrorRate                    // sigRate less the kind="peer_closed" series: normal closes are not failures
	sigP99Ms                        // histogram p99 over the rate window, nanoseconds to milliseconds
	sigLatest                       // the family's current total
	sigGoroutines                   // runtime.NumGoroutine
	sigHeapMB                       // live heap object bytes, MiB
)

// peerClosed is preallocated so the variadic pass in read allocates nothing.
var peerClosed = []telemetry.Label{telemetry.L("kind", "peer_closed")}

// read produces st's current value at now, sampling a stock signal's
// family into its window; ok=false skips the tick for it.
func (m *SelfMonitor) read(st *selfStream, now time.Time) (float64, bool) {
	sig := &st.sig
	switch sig.kind {
	case sigRate, sigErrorRate:
		var skip []telemetry.Label
		if sig.kind == sigErrorRate {
			skip = peerClosed
		}
		v, ok := m.reg.FamilyTotal(sig.metric, skip...)
		if !ok {
			return 0, false
		}
		j, secs := st.win.push(now, m.opts.RateWindow, v, nil)
		if secs == 0 {
			return 0, false
		}
		return (v - st.win.total[j]) / secs, true
	case sigP99Ms:
		h, ok := m.reg.FamilyHistogram(sig.metric)
		if !ok {
			return 0, false
		}
		j, _ := st.win.push(now, m.opts.RateWindow, 0, &h)
		for b, c := range st.win.hist[j].Counts { // h becomes what the window observed
			h.Counts[b] -= c
		}
		h.Count -= st.win.hist[j].Count
		return float64(h.Quantile(0.99)) / 1e6, h.Count > 0
	case sigLatest:
		return m.reg.FamilyTotal(sig.metric)
	case sigGoroutines:
		return float64(runtime.NumGoroutine()), true
	case sigHeapMB:
		metrics.Read(m.heap[:])
		if m.heap[0].Value.Kind() != metrics.KindUint64 {
			return 0, false
		}
		return float64(m.heap[0].Value.Uint64()) / (1 << 20), true
	}
	return sig.Read(m)
}

// window is what a rate or p99 signal keeps of its metric family: the
// family's total, or a p99 signal's merged histogram, at each of its
// latest fed ticks. It is a fixed ring of RateWindow/Every + 1 samples,
// the n-th pushed in slot n mod its length.
type window struct {
	at    []int64 // UnixNano
	total []float64
	hist  []telemetry.HistogramSnapshot // a p99 signal's; nil otherwise
	n     int
}

// push records the family as of now. It returns the slot of the oldest
// sample within d of it (at least the one before it, if any) and the
// seconds between the two: 0 until two samples span some time.
func (w *window) push(now time.Time, d time.Duration, total float64, h *telemetry.HistogramSnapshot) (oldest int, secs float64) {
	size := len(w.at)
	i := w.n % size
	w.at[i], w.total[i] = now.UnixNano(), total
	if h != nil {
		w.hist[i] = *h
	}
	w.n++
	oldest = i
	for k := 1; k < min(w.n, size); k++ {
		j := (w.n - 1 - k) % size
		if k > 1 && time.Duration(w.at[i]-w.at[j]) > d {
			break
		}
		oldest = j
	}
	return oldest, time.Duration(w.at[i] - w.at[oldest]).Seconds()
}

// SelfMonOptions configure EnableSelfMon.
type SelfMonOptions struct {
	// Every is the sample-and-evaluate cadence (default 1s).
	Every time.Duration
	// RateWindow is the trailing window the default signals compute
	// rates and quantiles over (default 30s). Each keeps
	// RateWindow/Every + 1 samples of its metric family.
	RateWindow time.Duration
	// Recover is how many ticks a δ-violation keeps its signal active
	// (default 5): the verdict returns to ok only after Recover quiet
	// ticks, so probes don't flap on a single spike.
	Recover int
	// Signals is the tracked signal set; nil means DefaultSelfSignals.
	Signals []SelfSignal
}

func (o *SelfMonOptions) defaults() {
	if o.Every <= 0 {
		o.Every = time.Second
	}
	if o.RateWindow <= 0 {
		o.RateWindow = 30 * time.Second
	}
	if o.Recover <= 0 {
		o.Recover = 5
	}
}

// HealthFinding is one piece of self-monitoring evidence: a δ-violating
// innovation or a whiteness failure on a self-stream, with the filter
// state that produced it. The retained findings (/statusz) and the
// reasons of a non-ok verdict (/healthz) are the same record.
type HealthFinding struct {
	// Time is when Value was read: the tick of the event for a retained
	// finding, the latest tick for a verdict's reason.
	Time     time.Time `json:"time"`
	Signal   string    `json:"signal"`
	Kind     string    `json:"kind"` // "delta_violation" | "whiteness"
	Critical bool      `json:"critical,omitempty"`
	// Value is the observed signal value; Pred the filter's prediction
	// at the signal's latest δ-violation; Residual their distance, which
	// exceeded Delta.
	Value    float64 `json:"value"`
	Pred     float64 `json:"pred"`
	Residual float64 `json:"residual"`
	Delta    float64 `json:"delta"`
	// NIS scores the innovation against the filter's own uncertainty
	// (0 when not computed).
	NIS float64 `json:"nis,omitempty"`
	// Whiteness is the lag-1 innovation autocorrelation, set while the
	// whiteness window is bad.
	Whiteness float64 `json:"whiteness,omitempty"`
	// TicksAgo is how many evaluation ticks since the event; a violating
	// signal deactivates after Recover quiet ticks.
	TicksAgo int64 `json:"ticks_ago"`

	tick int64 // the monitor tick of the event
}

// HealthReason explains one active signal in a non-ok verdict.
type HealthReason = HealthFinding

// HealthStatus is the node's status document, served at
// /healthz?verbose=1: the verdict with its reasons, and the few numbers a
// fleet view wants of a shard, so that one small fetch is the whole of
// what a router asks of it.
type HealthStatus struct {
	Status        string         `json:"status"` // ok | degraded | unhealthy
	UptimeSeconds float64        `json:"uptime_seconds"`
	Reasons       []HealthReason `json:"reasons,omitempty"`
	// Signals is the current value of every self-signal fed at the latest
	// tick, by name (ingest_rate, shed_rate, wire_error_rate, …); absent
	// without self-monitoring.
	Signals map[string]float64 `json:"signals,omitempty"`
	// WALCheckpointAgeSeconds is -1 with no WAL or no checkpoint yet.
	WALCheckpointAgeSeconds float64 `json:"wal_checkpoint_age_seconds"`
}

// Verdict levels, ordered by severity, and their names: the index is what
// dkf_selfmon_verdict exports and what a fleet roll-up takes the maximum of.
const (
	verdictOK int32 = iota
	verdictDegraded
	verdictUnhealthy
)

var Verdicts = [...]string{"ok", "degraded", "unhealthy"}

// selfStream is one signal's DKF pair plus its finding state.
type selfStream struct {
	sig SelfSignal
	src *core.SourceNode
	srv *core.ServerNode

	seq  int        // reading index; advances only on fed ticks
	vals [1]float64 // reusable Reading.Values backing array
	win  window     // a rate or p99 signal's samples of its family

	fed          bool    // the latest tick produced a value
	value        float64 // latest read value
	lastViolTick int64   // monitor tick of the latest δ-violation (0: none)
	viol         trace.Event
	whitenessBad bool
}

// finding is the stream's evidence as of its latest fed tick: the value
// then, against the prediction and NIS of its latest δ-violation.
func (st *selfStream) finding(kind string, at time.Time, tick int64) HealthFinding {
	return HealthFinding{Time: at, Signal: st.sig.Name, Kind: kind, Critical: st.sig.Critical,
		Value: st.value, Pred: st.viol.Pred, Residual: st.viol.Residual, Delta: st.sig.Delta, NIS: st.viol.NIS, tick: tick}
}

// SelfMonitor drives the server's self-observation: every tick each
// signal reads its metric family, the self-stream filters are fed, and
// the finding ring and verdict the admin endpoints surface are updated.
// Tick may be driven manually (tests) or by Start's background ticker.
type SelfMonitor struct {
	reg  *telemetry.Registry
	opts SelfMonOptions

	// verdict is stored atomically so the dkf_selfmon_verdict gauge
	// func can read it while Tick holds mu (a scrape, or a signal reading
	// a gauge func family inside Tick).
	verdict       atomic.Int32
	findingsTotal *telemetry.Counter

	mu       sync.Mutex
	streams  []*selfStream
	tick     int64
	now      time.Time // of the latest tick
	findings *LastN[HealthFinding]
	heap     [1]metrics.Sample // sigHeapMB's reusable read

	startOnce, stopOnce sync.Once // the ticker's: launched (or never to be), told to stop
	stop, done          chan struct{}
}

// EnableSelfMon attaches a self-monitor to the server: one DKF pair per
// signal, read from its telemetry registry. No goroutine is started —
// call Start for the background ticker, or drive Tick manually. Fails
// when already enabled.
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
		reg:      s.tel.reg,
		opts:     opts,
		findings: NewLastN[HealthFinding](64), // the newest findings /statusz serves
		heap:     [1]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
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
		st := &selfStream{sig: sig, src: src, srv: srv}
		if k := sig.kind; k == sigRate || k == sigErrorRate || k == sigP99Ms {
			n := int((opts.RateWindow+opts.Every-1)/opts.Every) + 1
			st.win = window{at: make([]int64, n), total: make([]float64, n)}
			if k == sigP99Ms {
				st.win.hist = make([]telemetry.HistogramSnapshot, n)
			}
		}
		m.streams = append(m.streams, st)
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

// Health returns the server's status document. Without a self-monitor
// the server has no evidence of trouble and reports ok.
func (s *Server) Health() HealthStatus {
	h := HealthStatus{Status: Verdicts[verdictOK]}
	if m := s.SelfMon(); m != nil {
		h = m.health()
	}
	h.UptimeSeconds, h.WALCheckpointAgeSeconds = time.Since(epoch).Seconds(), s.checkpointAge()
	return h
}

// Start launches the background ticker driving Tick every opts.Every.
// Idempotent, and a no-op once closed; Close stops it.
func (m *SelfMonitor) Start() {
	m.startOnce.Do(func() {
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
	})
}

// Close stops the background ticker, if any, and waits for it to exit.
// Idempotent; the monitor's state stays readable after Close.
func (m *SelfMonitor) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.startOnce.Do(func() { close(m.done) }) // never started: nothing to wait for, and nothing will start
	<-m.done
}

// Tick runs one self-observation cycle: read every signal (a stock one
// samples its metric family alone), feed the fed ones through their DKF
// pairs, turn δ-violations and fresh whiteness failures into findings,
// and refresh the verdict. Steady state (all signals suppressed) costs
// one small allocation per fed signal — SourceNode.Process's estimate
// copy, the contract pinned by TestSelfStreamAllocBudget.
func (m *SelfMonitor) Tick(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	m.now = now
	t := float64(now.UnixNano()) / 1e9
	for _, st := range m.streams {
		v, ok := m.read(st, now)
		st.fed = ok
		if !ok {
			continue
		}
		st.value = v
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
				m.addFinding(st.finding("delta_violation", now, m.tick))
			}
		}
		// Sustained one-sided whiteness failure: the self-stream's
		// model no longer explains the signal. Record on the healthy →
		// unhealthy transition only; the active flag persists while
		// the window stays bad.
		h := st.srv.Health()
		bad := h.Ready && !h.Healthy
		if bad && !st.whitenessBad {
			f := st.finding("whiteness", now, m.tick)
			f.Whiteness = h.Whiteness
			m.addFinding(f)
		}
		st.whitenessBad = bad
	}
	m.verdict.Store(m.verdictLocked())
}

// addFinding retains f among the newest findings. Caller holds mu.
func (m *SelfMonitor) addFinding(f HealthFinding) {
	m.findings.Put(f)
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

// health assembles the verdict half of the status document: one reason
// per active signal and every fed signal's value. Query path; allocates.
func (m *SelfMonitor) health() HealthStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := HealthStatus{Status: Verdicts[m.verdictLocked()], Signals: make(map[string]float64, len(m.streams))}
	for _, st := range m.streams {
		if st.fed {
			out.Signals[st.sig.Name] = st.value
		}
		if !m.active(st) {
			continue
		}
		r := st.finding("delta_violation", m.now, st.lastViolTick)
		r.TicksAgo = m.tick - st.lastViolTick
		if st.whitenessBad {
			r.Whiteness = st.srv.Health().Whiteness
			if st.lastViolTick == 0 || r.TicksAgo >= int64(m.opts.Recover) {
				r.Kind, r.TicksAgo = "whiteness", 0
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
	out := m.findings.Last(limit, true)
	for i := range out {
		out[i].TicksAgo = m.tick - out[i].tick
	}
	return out
}

// SelfSignalView is one signal's state for /statusz: the signal as it
// was configured (Model reading "constant" where left empty) and how it
// is doing.
type SelfSignalView struct {
	SelfSignal
	Fed          bool    `json:"fed"`
	Value        float64 `json:"value"`
	Updates      int     `json:"updates"`    // transmitted (δ-violating + bootstrap) readings
	Suppressed   int     `json:"suppressed"` // within-δ readings
	Active       bool    `json:"active"`
	WhitenessBad bool    `json:"whiteness_bad"`
}

// Signals returns every signal's current state, in registration order.
// Query path; allocates.
func (m *SelfMonitor) Signals() []SelfSignalView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SelfSignalView, len(m.streams))
	for i, st := range m.streams {
		stats := st.src.Stats()
		v := SelfSignalView{
			SelfSignal: st.sig, Fed: st.fed, Value: st.value,
			Updates: stats.Updates, Suppressed: stats.Suppressed,
			Active: m.active(st), WhitenessBad: st.whitenessBad,
		}
		v.Model = cmp.Or(v.Model, "constant")
		out[i] = v
	}
	return out
}

// DefaultSelfSignals is the stock signal catalog: the server health
// dimensions called out in DESIGN.md §15, each a row of (name, help,
// model, δ, critical, kind, metric) that SelfMonitor.read evaluates.
// Signals whose backing metric is absent on a given server (no engine, no
// WAL, no UDP server) simply never feed — read returns ok=false and the
// filter stays cold.
func DefaultSelfSignals() []SelfSignal {
	return []SelfSignal{
		{Name: "ingest_rate", Help: "Updates folded into server filters per second, all sources.",
			Model: "linear", Delta: 500, kind: sigRate, metric: "dkf_server_updates_total"},
		{Name: "shed_rate", Help: "Updates shed per second because a shard ring was full.",
			Model: "constant", Delta: 0.5, kind: sigRate, metric: "dkf_engine_ring_dropped_total"},
		{Name: "ring_hwm_growth", Help: "Shard ring high-water-mark growth per second.",
			Model: "constant", Delta: 8, kind: sigRate, metric: "dkf_engine_ring_depth_hwm"},
		{Name: "wal_fsync_p99_ms", Help: "WAL fsync latency p99 over the rate window, milliseconds.",
			Model: "constant", Delta: 10, kind: sigP99Ms, metric: "streamkf_wal_fsync_duration_nanos"},
		{Name: "wal_error_rate", Help: "Shard batch WAL commit failures per second.",
			Model: "constant", Delta: 0.1, Critical: true, kind: sigRate, metric: "dkf_engine_wal_errors_total"},
		{Name: "wire_error_rate", Help: "Wire protocol failures per second, normal peer closes excluded.",
			Model: "constant", Delta: 5, kind: sigErrorRate, metric: "dkf_wire_errors_total"},
		{Name: "udp_rx_rate", Help: "UDP datagrams received per second.",
			Model: "linear", Delta: 1000, kind: sigRate, metric: "dkf_udp_datagrams_rx_total"},
		{Name: "conns_active", Help: "Open TCP wire connections.",
			Model: "linear", Delta: 64, kind: sigLatest, metric: "dkf_wire_connections_active"},
		{Name: "goroutines", Help: "Live goroutines.", Model: "linear", Delta: 200, kind: sigGoroutines},
		{Name: "heap_mb", Help: "Live heap object bytes, MiB.", Model: "linear", Delta: 256, kind: sigHeapMB},
	}
}
