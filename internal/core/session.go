package core

import (
	"fmt"
	"math"

	"streamkf/internal/kalman"
	"streamkf/internal/stream"
)

// Transport carries updates from a source to its server. Implementations
// include the in-process DirectTransport here and the binary framed TCP
// transport in internal/dsms.
type Transport interface {
	// Send delivers one update to the server side. The update's Values
	// belong to the source node and are valid until its next reading: an
	// implementation that keeps the update past Send (an ack window, a
	// transcript) copies them.
	Send(Update) error
}

// TransportFunc adapts a function to the Transport interface.
type TransportFunc func(Update) error

// Send implements Transport.
func (f TransportFunc) Send(u Update) error { return f(u) }

// DirectTransport delivers updates synchronously to a ServerNode. It is
// the deterministic in-memory transport the experiment harness uses.
type DirectTransport struct {
	Server *ServerNode
}

// Send implements Transport.
func (d DirectTransport) Send(u Update) error { return d.Server.ApplyUpdate(u) }

// Metrics aggregates a session run, providing the paper's two evaluation
// metrics (§5): percentage of updates and average error value.
type Metrics struct {
	// Readings is the total number of readings taken by the source (n).
	Readings int
	// Updates is the number of updates actually sent to the server.
	Updates int
	// BytesSent accumulates wire bytes across all updates.
	BytesSent int
	// SumAbsErr accumulates Σ_k |v_k^source − v_k^server| where the
	// source value is the (possibly smoothed) measurement the protocol
	// tracks. For multi-attribute streams the per-reading error is the
	// sum over attributes, matching the paper's Example 1 metric.
	SumAbsErr float64
	// SumAbsErrRaw is the same accumulated against the raw, unsmoothed
	// readings. Equal to SumAbsErr when smoothing is off.
	SumAbsErrRaw float64
	// MaxAbsErr is the worst per-reading error against the tracked
	// (smoothed) measurement.
	MaxAbsErr float64
	// OutliersRejected counts source-side NIS rejections.
	OutliersRejected int
}

// PercentUpdates returns 100 * Updates / Readings.
func (m Metrics) PercentUpdates() float64 {
	if m.Readings == 0 {
		return 0
	}
	return 100 * float64(m.Updates) / float64(m.Readings)
}

// AvgErr returns the paper's average error value Σ ε_k / n against the
// tracked measurement.
func (m Metrics) AvgErr() float64 {
	if m.Readings == 0 {
		return 0
	}
	return m.SumAbsErr / float64(m.Readings)
}

// AvgErrRaw returns the average error against the raw readings.
func (m Metrics) AvgErrRaw() float64 {
	if m.Readings == 0 {
		return 0
	}
	return m.SumAbsErrRaw / float64(m.Readings)
}

// String renders the metrics compactly for logs and tables.
func (m Metrics) String() string {
	return fmt.Sprintf("readings=%d updates=%d (%.2f%%) avgErr=%.4f maxErr=%.4f bytes=%d",
		m.Readings, m.Updates, m.PercentUpdates(), m.AvgErr(), m.MaxAbsErr, m.BytesSent)
}

// Session couples a SourceNode and a ServerNode over a Transport and
// drives readings through the protocol, collecting Metrics.
type Session struct {
	cfg       Config
	source    *SourceNode
	server    *ServerNode
	transport Transport
	metrics   Metrics

	// CheckSync, when true, verifies the mirror-synchrony invariant
	// after every reading and makes Run fail loudly on violation. Cheap
	// enough for tests; off by default in benchmarks.
	CheckSync bool

	prevSeq int
}

// NewSession builds a matched source/server pair connected by the
// in-process DirectTransport.
func NewSession(cfg Config) (*Session, error) {
	src, err := NewSourceNode(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := NewServerNode(cfg)
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, source: src, server: srv, transport: DirectTransport{Server: srv}}, nil
}

// Source returns the session's source node.
func (s *Session) Source() *SourceNode { return s.source }

// Server returns the session's server node.
func (s *Session) Server() *ServerNode { return s.server }

// Step processes one reading through the full protocol: source decision,
// optional transmission, and server advancement. It returns the server's
// post-step estimate.
func (s *Session) Step(r stream.Reading) ([]float64, error) {
	if s.metrics.Readings > 0 && r.Seq != s.prevSeq+1 {
		return nil, fmt.Errorf("core: Session requires consecutive sequence numbers, got %d after %d", r.Seq, s.prevSeq)
	}
	s.prevSeq = r.Seq
	update, mirrorEst, err := s.source.Process(r)
	if err != nil {
		return nil, err
	}
	if update != nil {
		if err := s.transport.Send(*update); err != nil {
			return nil, err
		}
		s.metrics.Updates++
		s.metrics.BytesSent += update.WireBytes()
	} else {
		s.server.AdvanceTo(r.Seq)
	}
	s.metrics.Readings++
	s.metrics.OutliersRejected = s.source.stats.OutliersRejected

	est, ok := s.server.Estimate()
	if !ok {
		return nil, fmt.Errorf("core: server has no estimate after reading %d", r.Seq)
	}

	if s.CheckSync {
		if !kalman.StateEqual(s.source.mirror, &s.server.filter) {
			return nil, fmt.Errorf("core: mirror synchrony violated at seq %d", r.Seq)
		}
		if !equalVals(est, mirrorEst) {
			return nil, fmt.Errorf("core: estimate mismatch at seq %d: server %v, mirror %v", r.Seq, est, mirrorEst)
		}
	}

	// Error accounting: tracked measurement (post-smoothing) and raw.
	tracked := r.Values
	if s.cfg.F > 0 && s.source.smoothers != nil {
		tracked = s.source.smoothedEstimate()
	}
	errTracked := stream.AbsErrorSum(tracked, est)
	s.metrics.SumAbsErr += errTracked
	s.metrics.SumAbsErrRaw += stream.AbsErrorSum(r.Values, est)
	if errTracked > s.metrics.MaxAbsErr {
		s.metrics.MaxAbsErr = errTracked
	}
	return est, nil
}

// Run drives every reading of the dataset through the protocol and
// returns the accumulated metrics.
func (s *Session) Run(readings []stream.Reading) (Metrics, error) {
	for _, r := range readings {
		if _, err := s.Step(r); err != nil {
			return s.metrics, err
		}
	}
	return s.metrics, nil
}

// Metrics returns the metrics accumulated so far.
func (s *Session) Metrics() Metrics { return s.metrics }

func equalVals(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AdaptiveSampler adjusts the source sampling stride from the innovation
// sequence (§3.1 advantage 5, future work item 5): when recent prediction
// errors are small relative to δ the source can afford to sample less
// often; when they grow it tightens back to every reading.
type AdaptiveSampler struct {
	delta     float64
	alpha     float64 // EWMA factor
	maxStride int
	ewma      float64
	stride    int
}

// NewAdaptiveSampler returns a sampler for precision width delta with the
// given EWMA smoothing factor (0 < alpha <= 1) and maximum stride.
func NewAdaptiveSampler(delta, alpha float64, maxStride int) (*AdaptiveSampler, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("core: sampler delta = %v, want > 0", delta)
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: sampler alpha = %v, want (0, 1]", alpha)
	}
	if maxStride < 1 {
		return nil, fmt.Errorf("core: sampler maxStride = %d, want >= 1", maxStride)
	}
	return &AdaptiveSampler{delta: delta, alpha: alpha, maxStride: maxStride, stride: 1, ewma: delta}, nil
}

// Observe folds in the absolute prediction error of the latest sampled
// reading and recomputes the stride.
func (a *AdaptiveSampler) Observe(absErr float64) {
	a.ewma = float64(a.alpha*absErr) + float64((1-a.alpha)*a.ewma)
	// Error well below δ → prediction is reliable → widen the stride.
	ratio := a.ewma / a.delta
	switch {
	case ratio < 0.3:
		a.stride = min(a.stride*2, a.maxStride)
	case ratio > 0.75:
		a.stride = 1
	default:
		if a.stride > 1 {
			a.stride--
		}
	}
}

// Stride returns how many readings to skip between samples (1 = sample
// every reading).
func (a *AdaptiveSampler) Stride() int { return a.stride }

// Ratio returns the current EWMA error as a fraction of delta.
func (a *AdaptiveSampler) Ratio() float64 {
	if a.delta == 0 {
		return math.Inf(1)
	}
	return a.ewma / a.delta
}
