// Package core implements the paper's primary contribution: the Dual
// Kalman Filter (DKF) protocol for stream update suppression (§3.1,
// Figure 2).
//
// For each continuous query with precision width δ the system installs a
// Kalman filter KFs at the central server and a byte-identical mirror
// filter KFm at the remote source. Both filters advance their prediction
// every time step. The source compares the server's (mirrored) prediction
// against the actual reading; only when the prediction misses by more
// than δ does the source transmit an update, which both filters then fold
// in. An optional smoothing filter KFc at the source, controlled by the
// user's smoothing factor F, pre-filters noisy streams (§4.3).
//
// The load-bearing invariant is mirror synchrony: because KFm and KFs
// start from the same bootstrap measurement and execute the same sequence
// of predict/correct operations, they remain bit-identical forever, so
// the source always knows exactly what the server will answer — without
// any back-channel. kalman.StateEqual checks this, and the property tests
// in this package enforce it.
package core

import (
	"errors"
	"fmt"
	"math"

	"streamkf/internal/kalman"
	"streamkf/internal/model"
	"streamkf/internal/stream"
	"streamkf/internal/trace"
)

// Update is the wire message a source sends to the server when the
// precision constraint would be violated: the raw (or smoothed)
// measurement at sequence Seq.
type Update struct {
	// SourceID identifies the sending source object.
	SourceID string
	// Seq is the reading's discrete time index.
	Seq int
	// Time is the reading's sampling timestamp in seconds. It is not
	// sent: the wire carries no time, and a decoded update has Time 0.
	Time float64
	// Values is the measurement vector folded into both filters.
	Values []float64
	// Bootstrap marks the first update, which initializes rather than
	// corrects the server filter.
	Bootstrap bool
	// Handle is receiver-side and never on the wire: the 1-based index of
	// the stream's record in the receiving server's table, set by whoever
	// resolved SourceID there so the apply need not look it up again. 0 is
	// unresolved. The receiver checks it against SourceID, and every
	// decoder clears it, so nothing off the wire names a stream by index.
	// It sits in the padding after Bootstrap: the struct stays 64 bytes.
	Handle int32
}

// WireBytes estimates the update's size on the wire: an 8-byte header,
// 4-byte sequence number, the source id, and 8 bytes per float64. Used
// for bandwidth and energy accounting.
func (u Update) WireBytes() int {
	return 8 + 4 + len(u.SourceID) + 8*len(u.Values)
}

// Config assembles a DKF deployment for one source/query pair.
type Config struct {
	// SourceID names the source object (Table 2's s_i).
	SourceID string
	// Model is the stream model installed in KFs and KFm.
	Model model.Model
	// Delta is the precision width δ_i.
	Delta float64
	// F, when positive, enables the smoothing filter KFc at the source
	// with process noise covariance F (§4.3). The smoothed value becomes
	// the measurement both KFm and KFs track, per the paper: "KFm
	// considers the output from the smoothing filter as the measurement
	// and operates normally". Multi-attribute streams get one
	// independent one-state smoother per attribute.
	F float64
	// SmootherR is the measurement noise variance assumed by KFc.
	// Defaults to 1 when F > 0 and SmootherR == 0.
	SmootherR float64
	// OutlierNIS, when positive, enables innovation-based outlier
	// rejection at the source (§3.1 advantage 5): a reading whose
	// normalized innovation squared exceeds OutlierNIS is treated as a
	// glitch — neither corrected into the mirror nor transmitted — so
	// mirror synchrony is preserved.
	OutlierNIS float64
	// MaxConsecutiveOutliers bounds how many readings in a row may be
	// rejected before one is force-transmitted, so a genuine regime
	// change cannot be starved. Defaults to 5 when outlier rejection is
	// enabled.
	MaxConsecutiveOutliers int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SourceID == "" {
		return errors.New("core: Config.SourceID is empty")
	}
	return c.validateDeployment()
}

// validateDeployment is Validate without the id: what a Config shared by
// many sources, its SourceID empty, must still satisfy.
func (c *Config) validateDeployment() error {
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Delta <= 0 {
		return fmt.Errorf("core: Delta = %v, want > 0", c.Delta)
	}
	if c.F < 0 {
		return fmt.Errorf("core: F = %v, want >= 0", c.F)
	}
	if c.OutlierNIS < 0 {
		return fmt.Errorf("core: OutlierNIS = %v, want >= 0", c.OutlierNIS)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.F > 0 && c.SmootherR == 0 {
		c.SmootherR = 1
	}
	if c.OutlierNIS > 0 && c.MaxConsecutiveOutliers == 0 {
		c.MaxConsecutiveOutliers = 5
	}
}

// SourceNode runs at the remote source: the mirror filter KFm, the
// optional smoothing filter KFc, and the suppression decision.
type SourceNode struct {
	cfg       Config
	mirror    *kalman.Filter   // KFm, simulating the server's KFs
	smoothers []*kalman.Filter // KFc bank, one per attribute, optional
	outliers  int              // consecutive rejected readings
	stats     SourceStats

	// Node-owned scratch for the per-reading hot path: pred receives H x
	// and is what Process hands back as the mirrored estimate; smoothBuf
	// holds the KFc bank's output; upd is the Update Process hands back,
	// its Values the node's own copy of the transmitted measurement. The
	// filters read measurements in place, so a reading allocates nothing
	// whether it is suppressed or sent.
	pred      []float64
	smoothBuf []float64
	upd       Update

	// Flight recorder (nil when tracing is off: every recording site is
	// one branch), the per-reading trace id counter, and the evidence of
	// the latest suppression decision, a KindDecision event. lastDec is
	// maintained even with tracing off — a handful of scalar stores — so
	// transports can ship it the moment tracing is enabled.
	tr       *trace.Recorder
	traceSeq int64
	lastDec  trace.Event
}

// SourceStats counts source-side protocol events.
type SourceStats struct {
	// Readings is the number of sensor readings processed.
	Readings int
	// Updates is the number of transmissions to the server.
	Updates int
	// Suppressed is the number of readings filtered out.
	Suppressed int
	// OutliersRejected counts readings dropped by the NIS gate.
	OutliersRejected int
	// BytesSent accumulates Update.WireBytes over all transmissions.
	BytesSent int
}

// NewSourceNode constructs the source side of a DKF pair.
func NewSourceNode(cfg Config) (*SourceNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	m := cfg.Model.MeasDim
	return &SourceNode{cfg: cfg, pred: make([]float64, m), upd: Update{SourceID: cfg.SourceID, Values: make([]float64, m)}}, nil
}

// update fills the node-owned Update for a transmission of v at r.
func (s *SourceNode) update(r stream.Reading, v []float64, bootstrap bool) *Update {
	s.upd.Seq, s.upd.Time, s.upd.Bootstrap = r.Seq, r.Time, bootstrap
	copy(s.upd.Values, v)
	s.stats.Updates++
	s.stats.BytesSent += s.upd.WireBytes()
	return &s.upd
}

// smooth returns the measurement KFm tracks for the raw reading values
// when smoothing is enabled: the output of the KFc bank, one independent
// one-state smoother per attribute. It advances KFc, so call exactly once
// per reading (Process does).
func (s *SourceNode) smooth(raw []float64) ([]float64, error) {
	if s.smoothers == nil {
		s.smoothers = make([]*kalman.Filter, len(raw))
		m := model.Smoothing(s.cfg.F, s.cfg.SmootherR)
		for i, v := range raw {
			f, err := m.NewFilter([]float64{v})
			if err != nil {
				return nil, err
			}
			s.smoothers[i] = f
		}
		return clone(raw), nil
	}
	if s.smoothBuf == nil {
		s.smoothBuf = make([]float64, len(raw))
	}
	out := s.smoothBuf
	for i, f := range s.smoothers {
		f.Predict()
		if err := f.CorrectValues(raw[i : i+1]); err != nil {
			return nil, err
		}
		f.PredictedInto(out[i : i+1])
	}
	return out, nil
}

// smoothedEstimate returns the KFc bank's current output, used by the
// session for error accounting against the tracked measurement.
func (s *SourceNode) smoothedEstimate() []float64 {
	out := make([]float64, len(s.smoothers))
	for i, f := range s.smoothers {
		f.PredictedInto(out[i : i+1])
	}
	return out
}

// SetTrace attaches a flight recorder to the node. A nil recorder (the
// default) disables tracing; every recording site is then one branch.
func (s *SourceNode) SetTrace(tr *trace.Recorder) { s.tr = tr }

// Tracer returns the attached flight recorder, nil when tracing is off.
func (s *SourceNode) Tracer() *trace.Recorder { return s.tr }

// LastDecision returns the evidence of the most recent Process
// decision: what was measured, what the mirror predicted, the residual
// against δ, and the outcome. Transports ship it as the trailer of the
// update it explains.
func (s *SourceNode) LastDecision() trace.Event { return s.lastDec }

// Process handles one sensor reading. It returns a non-nil Update when
// the reading must be transmitted to the server, and the value the server
// will be answering queries with after this step (the mirrored server
// estimate). Both are node-owned scratch, valid until the next Process or
// SkipTick on this node: a caller — a Transport above all — that keeps
// the Update or its Values past that copies them.
func (s *SourceNode) Process(r stream.Reading) (*Update, []float64, error) {
	if len(r.Values) != s.cfg.Model.MeasDim {
		return nil, nil, fmt.Errorf("core: reading has %d values, model %s wants %d", len(r.Values), s.cfg.Model.Name, s.cfg.Model.MeasDim)
	}
	s.stats.Readings++
	s.traceSeq++
	seq := int64(r.Seq)
	raw, v := r.Values[0], r.Values
	if s.cfg.F > 0 {
		var err error
		if v, err = s.smooth(v); err != nil {
			return nil, nil, err
		}
	}
	// Sampling gates only the routine per-reading trail (smooth,
	// predict, suppress); sends, bootstraps and outlier rejections are
	// always recorded — they are the rare, interesting events.
	sampled := s.tr.Sampled(seq)
	if sampled && s.cfg.F > 0 {
		s.tr.Record(&trace.Event{TraceID: s.traceSeq, Seq: seq, Kind: trace.KindSmooth, Raw: raw, Value: v[0]})
	}
	if s.mirror == nil {
		// Bootstrap: first measurement initializes both filters.
		f, err := s.cfg.Model.NewFilter(v)
		if err != nil {
			return nil, nil, err
		}
		s.mirror = f
		u := s.update(r, v, true)
		s.decide(trace.DecisionBootstrap, seq, raw, v[0], 0, 0, 0)
		if s.tr != nil {
			s.record(false)
		}
		return u, s.mirror.PredictedInto(s.pred), nil
	}

	pred := s.mirror.CoastPredicted(s.pred)
	// The max-abs residual both decides suppression (residual <= δ is
	// exactly stream.WithinPrecision) and is the numeric evidence the
	// trace records; for m = 1 it is written out, NaN reading 0.
	residual := math.Abs(pred[0] - v[0])
	if len(pred) > 1 {
		residual = maxAbsResidual(pred, v)
	} else if !(residual > 0) {
		residual = 0
	}

	if residual <= s.cfg.Delta {
		// The server's prediction is good enough: suppress.
		s.stats.Suppressed++
		s.outliers = 0
		s.decide(trace.DecisionSuppress, seq, raw, v[0], pred[0], residual, 0)
		if sampled {
			s.record(true)
		}
		return nil, pred, nil
	}

	var nis float64
	if s.cfg.OutlierNIS > 0 && s.outliers < s.cfg.MaxConsecutiveOutliers {
		if n, err := s.mirror.NISValues(v); err == nil {
			if nis = n; nis > s.cfg.OutlierNIS {
				// Glitch: reject without transmitting. The mirror keeps its
				// prediction, exactly as the server will, so synchrony holds.
				s.outliers++
				s.stats.OutliersRejected++
				s.decide(trace.DecisionOutlier, seq, raw, v[0], pred[0], residual, nis)
				if s.tr != nil {
					s.record(sampled)
				}
				return nil, pred, nil
			}
		}
	}
	s.outliers = 0

	if err := s.mirror.CorrectValues(v); err != nil {
		return nil, nil, err
	}
	u := s.update(r, v, false)
	s.decide(trace.DecisionSend, seq, raw, v[0], pred[0], residual, nis)
	if s.tr != nil {
		s.record(sampled)
	}
	// pred's pre-correction value is in the evidence; it now takes the
	// corrected estimate.
	return u, s.mirror.PredictedInto(pred), nil
}

// decide stores the reading's decision evidence field by field, not as a
// literal built aside and copied: value is the smoothed measurement, pred
// and residual the mirror's prediction and miss, nis the gate's statistic.
func (s *SourceNode) decide(dec trace.Decision, seq int64, raw, value, pred, residual, nis float64) {
	d := &s.lastDec
	d.TraceID, d.Seq, d.At, d.Kind, d.Dec, d.Aux = s.traceSeq, seq, 0, trace.KindDecision, dec, 0
	d.Raw, d.Value, d.Pred, d.Residual, d.Delta, d.NIS = raw, value, pred, residual, s.cfg.Delta, nis
}

// record appends the evidence record to the flight recorder, which stamps
// its At: the decided-at time a traced update carries. With predict set
// the prediction step it decided on — the same numbers, no verdict —
// goes in just ahead of it.
func (s *SourceNode) record(predict bool) {
	if predict {
		p := s.lastDec
		p.Kind, p.Dec, p.NIS = trace.KindPredict, trace.DecisionNone, 0
		s.tr.Record(&p)
	}
	s.tr.Record(&s.lastDec)
}

// maxAbsResidual returns max_i |a[i] − b[i]|, or max_i |a[i]| for b nil —
// the residual the suppression decision compares against δ, and the
// server's divergence tap. Comparing it to delta with <= is equivalent to
// stream.WithinPrecision (NaN components never raise the max, matching
// WithinPrecision's NaN behavior).
func maxAbsResidual(a, b []float64) (m float64) {
	for i, d := range a {
		if b != nil {
			d -= b[i]
		}
		if d = math.Abs(d); d > m {
			m = d
		}
	}
	return m
}

// Stats returns the source-side counters.
func (s *SourceNode) Stats() SourceStats { return s.stats }

// Mirror exposes the mirror filter for invariant checks and diagnostics;
// nil before the bootstrap reading.
func (s *SourceNode) Mirror() *kalman.Filter { return s.mirror }

// ServerNode runs at the central server: KFs, which answers queries from
// its prediction and folds in the updates the source chooses to send.
//
// The node is sequence-driven: it tracks the last reading index it has
// advanced its prediction to, so in a distributed deployment — where the
// server sees only the sparse update stream — AdvanceTo lazily runs the
// predict steps for all suppressed readings in between: one Coast, which
// leaves the bits of the mirror's Coast per reading, so synchrony holds
// whenever both sides are aligned at the same sequence number.
//
// A node is a pointer-light value over one block of floats — the filter's
// segments, then the whiteness tap's m+2 (two sums and the previous
// innovation), then the m-value prediction buffer — so a server embeds it
// in its stream record and carves the block from a BlockPool (Init,
// Install); NewServerNode is the same thing on the heap. Once built it
// never allocates: a bootstrap, a re-bootstrap and a restore all rebuild
// the filter in place.
type ServerNode struct {
	cfg     *Config       // shared, read-only; nil until Init
	filter  kalman.Filter // KFs, over the node's block; a zero-state placeholder until booted
	ticks   int
	lastSeq int

	// Filter-health diagnostics over the transmitted-update stream: the
	// NIS of the latest update against the pre-correction prediction and
	// the running sums of the whiteness statistic.
	lastNIS float64
	// Divergence tap: the max-abs innovation |z - H x̂⁻| of the latest
	// non-bootstrap update against the pre-correction prediction — the
	// same units as δ, so the trace audit can compare them directly. Both
	// taps and the whiteness sums read the correction's own innovation.
	lastInnov float64
	health    kalman.InnovationSums

	// atUpdate: lastSeq is an applied update's seq, not one AdvanceTo reached.
	booted, nisValid, innovValid, atUpdate bool
}

// NewServerNode constructs the server side of a DKF pair on the heap: its
// own copy of cfg, its own block.
func NewServerNode(cfg Config) (*ServerNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	s := new(ServerNode)
	if err := s.Init(&cfg, make([]float64, cfg.NodeBlockLen())); err != nil {
		return nil, err
	}
	return s, nil
}

// NodeBlockLen returns how many float64s a ServerNode for c keeps in its
// block: what Init's caller provides.
func (c *Config) NodeBlockLen() int {
	return c.Model.BlockLen() + 2*c.Model.MeasDim + 2
}

// Init builds the node in place over block — NodeBlockLen floats the
// caller provides and keeps valid while the node is used — for a cfg the
// caller will not change: every stream with the same deployment can share
// one, its SourceID left empty. The node awaits its bootstrap; a failed
// Init leaves node and block as they were.
func (s *ServerNode) Init(cfg *Config, block []float64) error {
	if err := cfg.validateDeployment(); err != nil {
		return err
	}
	return s.build(cfg, block)
}

// Install is Init over a block taken from pool, which gets it back if the
// node cannot be built; Release's result goes back there when the node is
// done with.
func (s *ServerNode) Install(cfg *Config, pool *BlockPool) error {
	if err := cfg.validateDeployment(); err != nil {
		return err // before its dimensions size a block
	}
	block := pool.Get(cfg.NodeBlockLen())
	err := s.build(cfg, block)
	if err != nil {
		pool.Put(block)
	}
	return err
}

// build is Init for a validated cfg.
func (s *ServerNode) build(cfg *Config, block []float64) error {
	if len(block) < cfg.NodeBlockLen() {
		return fmt.Errorf("core: node block holds %d values, %s needs %d", len(block), cfg.Model.Name, cfg.NodeBlockLen())
	}
	var f kalman.Filter
	if err := cfg.Model.InitFilter(&f, block, nil); err != nil {
		return err
	}
	*s = ServerNode{cfg: cfg, filter: f}
	return nil
}

// Installed reports whether the node has been built (Init, Install or
// NewServerNode) and not released.
func (s *ServerNode) Installed() bool { return s.cfg != nil }

// Release returns the node's block, zeroed, to whoever provided it — nil
// from a node that was never built — and the node to its zero value.
func (s *ServerNode) Release() []float64 {
	block := s.filter.Block()
	clear(block)
	*s = ServerNode{}
	return block
}

// sums and pred are the two tails of the block behind the filter.
func (s *ServerNode) sums() []float64 { return s.filter.Spare()[:s.cfg.Model.MeasDim+2] }
func (s *ServerNode) pred() []float64 {
	m := s.cfg.Model.MeasDim
	return s.filter.Spare()[m+2 : 2*m+2]
}

// AdvanceTo runs predict steps until the node's prediction corresponds to
// reading index seq — one Coast over the whole suppressed run. A no-op
// before bootstrap or when already at or past seq.
func (s *ServerNode) AdvanceTo(seq int) {
	if !s.booted || seq <= s.lastSeq {
		return
	}
	steps := seq - s.lastSeq
	s.filter.Coast(steps)
	s.ticks += steps
	s.lastSeq, s.atUpdate = seq, false
}

// Seq returns the reading index the node's estimate corresponds to.
func (s *ServerNode) Seq() int { return s.lastSeq }

// ApplyUpdate folds a transmitted update into KFs. The first (bootstrap)
// update initializes the filter; subsequent updates advance prediction up
// to the update's sequence number and correct, exactly mirroring the
// source's operation sequence.
//
// A bootstrap update on an already-bootstrapped node re-initializes it:
// that is a source that lost its mirror state (e.g. the sensor process
// restarted) starting a fresh DKF session, and folding its bootstrap as
// a correction would desynchronize the new mirror forever. The whiteness
// sums reset with the filter.
//
// Any other update behind the node's seq, or at it when an update was
// applied there, is refused: the mirror corrected once, and folding a
// repeat in again would leave the two filters different.
func (s *ServerNode) ApplyUpdate(u Update) error {
	if !s.booted || u.Bootstrap {
		if !u.Bootstrap {
			return fmt.Errorf("core: first update for %s is not a bootstrap", u.SourceID)
		}
		if err := s.cfg.Model.InitFilter(&s.filter, s.filter.Block(), u.Values); err != nil {
			return err
		}
		// A re-bootstrap discards the diagnostics of the previous session.
		s.lastNIS, s.nisValid = 0, false
		s.lastInnov, s.innovValid = 0, false
		s.health.Reset(s.sums())
		s.booted = true
		s.lastSeq, s.atUpdate = u.Seq, true
		return nil
	}
	if u.Seq < s.lastSeq || u.Seq == s.lastSeq && s.atUpdate {
		return fmt.Errorf("core: update for %s at seq %d repeats the last applied or arrived after prediction advanced to seq %d", u.SourceID, u.Seq, s.lastSeq)
	}
	s.AdvanceTo(u.Seq)
	s.atUpdate = true
	s.filter.Settle() // in place, refused update or not
	// The filter reads u.Values in place; a malformed update gets its
	// dimension error from the filter itself, as it always has.
	if err := s.filter.CorrectValues(u.Values); err != nil {
		// A singular S refuses the correction but not the divergence tap:
		// H x̂⁻ into the block's buffer.
		if pred := s.pred(); len(u.Values) == len(pred) {
			s.lastInnov, s.innovValid = maxAbsResidual(u.Values, s.filter.PredictedInto(pred)), true
		}
		return err
	}
	// The taps read the correction's innovation d = z − H x̂⁻ and the S⁻¹
	// it used: the divergence tap max |d|, in δ's units; the health tap,
	// the NIS dᵀS⁻¹d; and the whiteness sums. H x̂⁻ is computed once.
	d := s.filter.LastInnovation()
	s.lastInnov, s.innovValid = maxAbsResidual(d, nil), true
	s.lastNIS, s.nisValid = s.filter.CorrectedNIS(), true
	s.health.Observe(s.sums(), d)
	return nil
}

// FilterHealth is the server-side diagnostic snapshot for one stream's
// filter, derived from the transmitted-update innovation sequence.
//
// Transmitted updates are by construction the readings the mirror's
// prediction missed by more than δ, so their innovations are not an
// unbiased sample of the full innovation sequence; the whiteness flag is
// a mis-model detector (persistent one-sided innovations), not a strict
// χ² consistency test.
type FilterHealth struct {
	// NIS is the normalized innovation squared of the latest update
	// against the pre-correction prediction. Under a correct model it is
	// χ²(m)-distributed; persistently large values mean the model no
	// longer explains the stream.
	NIS float64
	// NISValid reports whether NIS has been computed (false until the
	// first non-bootstrap update).
	NISValid bool
	// Whiteness is the lag-1 autocorrelation of recent innovations,
	// exponentially weighted over kalman.WhitenessWindow of them; ~0 for
	// a healthy filter.
	Whiteness float64
	// Ready reports whether kalman.WhitenessWindow innovations have been
	// observed since the (re)bootstrap.
	Ready bool
	// Healthy is false when Whiteness is ready and exceeds the
	// +2/√WhitenessWindow acceptance bound — the "model mismatch"
	// gauge exposed per stream on /metrics.
	//
	// The test is one-sided because the server only sees δ-censored
	// innovations: send-on-delta truncates the small ones and the
	// correction after a drift tends to overshoot alternately, so a
	// correctly modeled stream shows zero-to-negative lag-1
	// autocorrelation. A model whose dynamics cannot track the stream
	// lags it persistently, pushing the innovations the same way update
	// after update — sustained positive correlation is the mis-model
	// signature.
	Healthy bool
}

// LastInnovation returns the max-abs innovation of the latest
// non-bootstrap update against the pre-correction prediction, and
// whether one has been observed. It shares units with δ: a value above
// δ is the expected signature of a transmitted update (the mirror's
// prediction missed), a value at or below δ is broken-mirror evidence.
func (s *ServerNode) LastInnovation() (float64, bool) { return s.lastInnov, s.innovValid }

// LastNIS returns the normalized innovation squared of the latest
// non-bootstrap update, and whether one has been computed. Unlike
// Health it touches no whiteness state.
func (s *ServerNode) LastNIS() (float64, bool) { return s.lastNIS, s.nisValid }

// Health returns the stream's current filter-health diagnostics. It is
// allocation-free and safe to call on every ingest.
func (s *ServerNode) Health() FilterHealth {
	h := FilterHealth{NIS: s.lastNIS, NISValid: s.nisValid, Healthy: true}
	if !s.booted {
		return h
	}
	rho, ready := s.health.Whiteness(s.sums())
	h.Whiteness, h.Ready = rho, ready
	if ready && rho > kalman.WhitenessBound(kalman.WhitenessWindow) {
		h.Healthy = false
	}
	return h
}

// Estimate returns the server's current answer for the stream value, or
// ok=false before the bootstrap update arrives.
func (s *ServerNode) Estimate() (values []float64, ok bool) { return s.EstimateAt(s.lastSeq) }

// EstimateAt is Estimate at reading index seq (at most Seq: the current
// value), stepped on a copy of x with the bits AdvanceTo would leave.
func (s *ServerNode) EstimateAt(seq int) (values []float64, ok bool) {
	if !s.booted {
		return nil, false
	}
	return s.filter.PredictedAheadInto(make([]float64, s.cfg.Model.MeasDim), max(seq-s.lastSeq, 0)), true
}

// Filter exposes KFs for invariant checks and diagnostics; nil before
// bootstrap.
func (s *ServerNode) Filter() *kalman.Filter {
	if !s.booted {
		return nil
	}
	return &s.filter
}

// Bootstrapped reports whether the bootstrap update has arrived and the
// node answers queries.
func (s *ServerNode) Bootstrapped() bool { return s.booted }

// NodeSnapshot is the complete mutable state of a bootstrapped
// ServerNode, in serialization-ready form: everything a checkpoint must
// persist so a restored node continues the exact same trajectory. The
// model itself is not included — it travels by name, like the DKF
// install handshake — so the restoring side must construct the node
// from the same Config.
type NodeSnapshot struct {
	X     []float64 // state estimate, n values
	P     []float64 // error covariance, n*n values row-major
	K     int       // filter discrete time index (Predict count)
	Seq   int       // reading index the prediction corresponds to
	Ticks int       // no-update predict steps taken

	LastNIS  float64
	NISValid bool
	// Sums is the whiteness statistic, m+2 values: its two sums and the
	// previous innovation. SumsCount is how many innovations it has
	// observed, up to kalman.WhitenessWindow.
	Sums      []float64
	SumsCount int
}

// Snapshot captures the node's state for a checkpoint, or nil before
// bootstrap (an unbootstrapped node has nothing to persist: recovery
// reconstructs it from its Config alone).
func (s *ServerNode) Snapshot() *NodeSnapshot {
	if !s.booted {
		return nil
	}
	s.filter.Settle() // owes only after a replayed legacy advance record
	return &NodeSnapshot{
		X:         s.filter.State().VecSlice(),
		P:         s.filter.Cov().DataCopy(),
		K:         s.filter.K(),
		Seq:       s.lastSeq,
		Ticks:     s.ticks,
		LastNIS:   s.lastNIS,
		NISValid:  s.nisValid,
		Sums:      clone(s.sums()),
		SumsCount: s.health.N,
	}
}

// RestoreSnapshot rebuilds the node's filter and diagnostics, in place and
// without allocating, from a Snapshot taken on a node with the same
// Config. The restored filter is bit-identical in (x, P, k), so every
// subsequent Predict/Correct — and therefore every query answer — matches
// the snapshotted node exactly. A snapshot that does not fit the model is
// refused with the node untouched.
func (s *ServerNode) RestoreSnapshot(snap *NodeSnapshot) error {
	if snap == nil {
		return errors.New("core: nil node snapshot")
	}
	n, m := s.cfg.Model.Dim, s.cfg.Model.MeasDim
	if len(snap.X) != n || len(snap.P) != n*n || len(snap.Sums) != m+2 {
		return fmt.Errorf("core: snapshot for %s has %d states / %d covariances / %d whiteness sums, model %s wants %d / %d / %d",
			s.cfg.SourceID, len(snap.X), len(snap.P), len(snap.Sums), s.cfg.Model.Name, n, n*n, m+2)
	}
	// Rebuild through the model's own bootstrap path so the filter carries
	// the right matrices, then overwrite the mutable state.
	if err := s.cfg.Model.InitFilter(&s.filter, s.filter.Block(), nil); err != nil {
		return err
	}
	s.filter.RestoreValues(snap.X, snap.P, snap.K)
	copy(s.sums(), snap.Sums)
	s.health.N = snap.SumsCount
	s.booted = true
	s.lastSeq, s.atUpdate = snap.Seq, true // replay and sources resume past it
	s.ticks = snap.Ticks
	s.lastNIS = snap.LastNIS
	s.nisValid = snap.NISValid
	return nil
}

func clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
