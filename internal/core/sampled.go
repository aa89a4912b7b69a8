package core

import (
	"fmt"

	"streamkf/internal/stream"
)

// SkipTick advances the mirror prediction across a time step on which the
// sensor chose not to take a measurement at all (adaptive sampling,
// future work item 5). It returns the mirrored server estimate for that
// step, in the same node-owned scratch Process returns. The server needs
// no message: its lazy AdvanceTo covers skipped steps identically, so
// mirror synchrony is preserved.
func (s *SourceNode) SkipTick() ([]float64, error) {
	if s.mirror == nil {
		return nil, fmt.Errorf("core: SkipTick before bootstrap")
	}
	s.mirror.Coast(1)
	return s.mirror.PredictedInto(s.pred), nil
}

// SampledMetrics extends the protocol metrics with sensing counters.
type SampledMetrics struct {
	Metrics
	// Sensed is how many time steps the sensor actually measured.
	Sensed int
	// Skipped is how many time steps the sensor slept through.
	Skipped int
}

// PercentSensed returns 100 * Sensed / Readings — the sensing duty cycle.
func (m SampledMetrics) PercentSensed() float64 {
	if m.Readings == 0 {
		return 0
	}
	return 100 * float64(m.Sensed) / float64(m.Readings)
}

// SampledSession couples a DKF pair with an AdaptiveSampler: when the
// innovation sequence shows the model predicting reliably, the source
// widens its sampling stride and skips whole readings — saving sensing
// and filter energy on top of the transmission savings. When errors
// grow, the stride snaps back to every reading.
//
// Error accounting uses the true readings for every step (including
// skipped ones), so the metrics expose the real accuracy cost of
// sleeping, not just the cost on sensed steps.
type SampledSession struct {
	cfg     Config
	source  *SourceNode
	server  *ServerNode
	sampler *AdaptiveSampler
	metrics SampledMetrics

	nextSense int // sequence number of the next scheduled measurement
	started   bool
}

// NewSampledSession builds a DKF pair driven by an adaptive sampler.
func NewSampledSession(cfg Config, sampler *AdaptiveSampler) (*SampledSession, error) {
	if sampler == nil {
		return nil, fmt.Errorf("core: nil sampler")
	}
	src, err := NewSourceNode(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := NewServerNode(cfg)
	if err != nil {
		return nil, err
	}
	return &SampledSession{cfg: cfg, source: src, server: srv, sampler: sampler}, nil
}

// Step processes one time step. The reading carries the true value so
// metrics can report the real error, but the sensor only *uses* it on
// scheduled steps.
func (s *SampledSession) Step(r stream.Reading) ([]float64, error) {
	s.metrics.Readings++
	var est []float64
	if !s.started || r.Seq >= s.nextSense {
		update, mirrorEst, err := s.source.Process(r)
		if err != nil {
			return nil, err
		}
		if update != nil {
			if err := s.server.ApplyUpdate(*update); err != nil {
				return nil, err
			}
			s.metrics.Updates++
			s.metrics.BytesSent += update.WireBytes()
		}
		est = mirrorEst
		s.metrics.Sensed++
		s.started = true
		s.sampler.Observe(s.priorError(update, mirrorEst, r.Values))
		s.nextSense = r.Seq + s.sampler.Stride()
	} else {
		mirrorEst, err := s.source.SkipTick()
		if err != nil {
			return nil, err
		}
		est = mirrorEst
		s.metrics.Skipped++
	}
	e := stream.AbsErrorSum(r.Values, est)
	s.metrics.SumAbsErr += e
	s.metrics.SumAbsErrRaw += e
	if e > s.metrics.MaxAbsErr {
		s.metrics.MaxAbsErr = e
	}
	// est is the source node's scratch; the caller gets its own copy.
	return clone(est), nil
}

// priorError returns the a priori prediction error the sampler should
// learn from: on suppressed steps the mirror estimate *is* the
// prediction; on update steps the prediction error is the innovation
// magnitude (the post-correction estimate would understate how wrong the
// model was). The bootstrap step has no prediction; treat it as a full-δ
// miss so the sampler starts cautious.
func (s *SampledSession) priorError(update *Update, mirrorEst, truth []float64) float64 {
	if update == nil {
		return stream.AbsErrorSum(mirrorEst, truth)
	}
	innov := s.source.Mirror().Innovation()
	if innov == nil {
		return s.cfg.Delta
	}
	var sum float64
	for _, v := range innov.VecSlice() {
		if v < 0 {
			v = -v
		}
		sum += v
	}
	return sum
}

// Run drives a whole dataset.
func (s *SampledSession) Run(readings []stream.Reading) (SampledMetrics, error) {
	for _, r := range readings {
		if _, err := s.Step(r); err != nil {
			return s.metrics, err
		}
	}
	return s.metrics, nil
}

// Metrics returns the counters so far.
func (s *SampledSession) Metrics() SampledMetrics { return s.metrics }
