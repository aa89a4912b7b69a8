package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamkf/internal/gen"
	"streamkf/internal/kalman"
	"streamkf/internal/model"
	"streamkf/internal/stream"
)

func linearCfg(delta float64) Config {
	return Config{
		SourceID: "s1",
		Model:    model.Linear(1, 1, 0.05, 0.05),
		Delta:    delta,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := linearCfg(3).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := map[string]Config{
		"empty source": {Model: model.Constant(1, 0.1, 0.1), Delta: 1},
		"bad model":    {SourceID: "s", Delta: 1},
		"zero delta":   {SourceID: "s", Model: model.Constant(1, 0.1, 0.1)},
		"neg F":        {SourceID: "s", Model: model.Constant(1, 0.1, 0.1), Delta: 1, F: -1},
		"neg outlier":  {SourceID: "s", Model: model.Constant(1, 0.1, 0.1), Delta: 1, OutlierNIS: -2},
	}
	for name, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBootstrapAlwaysTransmits(t *testing.T) {
	src, err := NewSourceNode(linearCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	u, est, err := src.Process(stream.Reading{Seq: 0, Values: []float64{10}})
	if err != nil {
		t.Fatal(err)
	}
	if u == nil || !u.Bootstrap {
		t.Fatalf("first reading must produce a bootstrap update, got %+v", u)
	}
	if est[0] != 10 {
		t.Fatalf("bootstrap estimate = %v, want 10", est)
	}
}

func TestServerRejectsNonBootstrapFirst(t *testing.T) {
	srv, err := NewServerNode(linearCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ApplyUpdate(Update{SourceID: "s1", Values: []float64{1}}); err == nil {
		t.Fatal("server accepted non-bootstrap first update")
	}
	if _, ok := srv.Estimate(); ok {
		t.Fatal("server has estimate before bootstrap")
	}
}

func TestProcessDimensionMismatch(t *testing.T) {
	src, _ := NewSourceNode(linearCfg(5))
	if _, _, err := src.Process(stream.Reading{Values: []float64{1, 2}}); err == nil {
		t.Fatal("accepted wrong-arity reading")
	}
}

func TestSuppressionOnPerfectLinearTrend(t *testing.T) {
	// A noiseless ramp matched by a linear model: after the filter locks
	// on, updates must become rare (the fig4 effect).
	sess, err := NewSession(linearCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	sess.CheckSync = true
	data := gen.Ramp(500, 0, 2, 0, 1)
	m, err := sess.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Readings != 500 {
		t.Fatalf("readings = %d", m.Readings)
	}
	if m.PercentUpdates() > 10 {
		t.Fatalf("linear model on noiseless ramp sent %.1f%% updates, want < 10%%", m.PercentUpdates())
	}
	if m.AvgErr() > 1 {
		t.Fatalf("avg error %v exceeds precision width", m.AvgErr())
	}
}

func TestConstantModelMatchesRampPoorly(t *testing.T) {
	// The ablation behind fig4: a constant model on a steep ramp must
	// update nearly every reading, like the caching baseline.
	cfg := Config{SourceID: "s1", Model: model.Constant(1, 0.05, 0.05), Delta: 1}
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Run(gen.Ramp(300, 0, 2, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.PercentUpdates() < 50 {
		t.Fatalf("constant model on steep ramp sent only %.1f%% updates", m.PercentUpdates())
	}
}

func TestMirrorSynchronyOnNoisyData(t *testing.T) {
	cfg := linearCfg(2)
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.CheckSync = true
	if _, err := sess.Run(gen.RandomWalk(1000, 0, 3, 7)); err != nil {
		t.Fatal(err)
	}
	if !kalman.StateEqual(sess.Source().Mirror(), sess.Server().Filter()) {
		t.Fatal("final states differ")
	}
}

func TestMirrorSynchronyProperty(t *testing.T) {
	// Across random workloads, deltas and models, the mirror invariant
	// must hold bit-exactly at every step (CheckSync enforces per step).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		models := []model.Model{
			model.Constant(1, 0.05, 0.05),
			model.Linear(1, 1, 0.05, 0.05),
			model.Acceleration(1, 1, 0.05, 0.05),
		}
		cfg := Config{
			SourceID: "s1",
			Model:    models[rng.Intn(len(models))],
			Delta:    0.5 + rng.Float64()*5,
		}
		sess, err := NewSession(cfg)
		if err != nil {
			return false
		}
		sess.CheckSync = true
		data := gen.RandomWalk(300, rng.NormFloat64()*10, 1+rng.Float64()*4, seed)
		_, err = sess.Run(data)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorNeverExceedsDeltaPlusInnovationSlack(t *testing.T) {
	// On every suppressed step the tracked error is within delta by
	// construction; on update steps the server corrects with the exact
	// measurement. The max error against the *tracked* measurement can
	// exceed delta only on the update step itself before correction —
	// our accounting measures post-correction, so max must be <= delta
	// plus the filter's residual after correction.
	deltas := []float64{0.5, 1, 3, 10}
	for _, d := range deltas {
		sess, err := NewSession(linearCfg(d))
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.Run(gen.RandomWalk(800, 0, 2, 11))
		if err != nil {
			t.Fatal(err)
		}
		// Post-correction residual is bounded by the innovation times
		// (1 - gain); with our noise settings gain is high, so allow a
		// generous 1.0 slack factor.
		if m.MaxAbsErr > 2*d+1 {
			t.Fatalf("delta=%v: max error %v far exceeds bound", d, m.MaxAbsErr)
		}
	}
}

func TestMonotoneSuppressionInDelta(t *testing.T) {
	// Larger precision width must never produce more updates (fig4/7/11's
	// x-axis behaviour).
	data := gen.MovingObject(gen.MovingObjectConfig{N: 1500, DT: 0.1, MaxSpeed: 300, MinSegment: 30, MaxSegment: 150, NoiseStd: 0.2, Seed: 5})
	prev := math.Inf(1)
	for _, d := range []float64{0.5, 1, 2, 4, 8, 16} {
		cfg := Config{SourceID: "s1", Model: model.Linear(2, 0.1, 0.05, 0.05), Delta: d}
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.Run(data)
		if err != nil {
			t.Fatal(err)
		}
		if p := m.PercentUpdates(); p > prev+1e-9 {
			t.Fatalf("updates increased from %.2f%% to %.2f%% as delta grew to %v", prev, p, d)
		} else {
			prev = p
		}
	}
}

func TestSmoothingReducesUpdatesOnNoise(t *testing.T) {
	// The fig11/fig12 effect: on a noisy trendless stream, enabling KFc
	// with small F must cut updates dramatically.
	data := gen.HTTPTraffic(gen.HTTPTrafficConfig{N: 2000, BaseRate: 100, NoiseStd: 30, BurstProb: 0.01, BurstAmp: 200, Seed: 9})
	run := func(F float64) Metrics {
		cfg := Config{SourceID: "s1", Model: model.Linear(1, 1, 0.05, 0.05), Delta: 10, F: F}
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.Run(data)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	raw := run(0)
	smoothed := run(1e-7)
	if smoothed.PercentUpdates() >= raw.PercentUpdates() {
		t.Fatalf("smoothing did not reduce updates: %.1f%% vs %.1f%%", smoothed.PercentUpdates(), raw.PercentUpdates())
	}
}

func TestSmoothingMonotoneInF(t *testing.T) {
	// fig12: lowering F lowers the update rate.
	data := gen.HTTPTraffic(gen.HTTPTrafficConfig{N: 2000, BaseRate: 100, NoiseStd: 30, BurstProb: 0.01, BurstAmp: 200, Seed: 9})
	var prev float64 = -1
	for _, F := range []float64{1e-9, 1e-7, 1e-5, 1e-3, 1e-1} {
		cfg := Config{SourceID: "s1", Model: model.Constant(1, 0.05, 0.05), Delta: 10, F: F}
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.Run(data)
		if err != nil {
			t.Fatal(err)
		}
		if p := m.PercentUpdates(); p < prev {
			t.Fatalf("updates decreased from %.2f%% to %.2f%% as F grew to %v", prev, p, F)
		} else {
			prev = p
		}
	}
}

func TestSmoothingMultiAttribute(t *testing.T) {
	// A 2-D noisy stream with per-attribute KFc smoothers must suppress
	// far more than the unsmoothed run, and the smoother bank must treat
	// attributes independently.
	rng := rand.New(rand.NewSource(31))
	var data []stream.Reading
	for i := 0; i < 1500; i++ {
		data = append(data, stream.Reading{Seq: i, Values: []float64{
			50 + 20*rng.NormFloat64(),
			-30 + 15*rng.NormFloat64(),
		}})
	}
	run := func(F float64) Metrics {
		cfg := Config{SourceID: "s1", Model: model.Constant(2, 0.05, 0.05), Delta: 8, F: F}
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess.CheckSync = true
		m, err := sess.Run(data)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	raw := run(0)
	smoothed := run(1e-7)
	if smoothed.PercentUpdates() >= raw.PercentUpdates()/2 {
		t.Fatalf("2-D smoothing ineffective: %.1f%% vs %.1f%%", smoothed.PercentUpdates(), raw.PercentUpdates())
	}
	// The smoothed server estimate must sit near each attribute's mean.
	cfg := Config{SourceID: "s1", Model: model.Constant(2, 0.05, 0.05), Delta: 8, F: 1e-7}
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(data); err != nil {
		t.Fatal(err)
	}
	est, _ := sess.Server().Estimate()
	if math.Abs(est[0]-50) > 10 || math.Abs(est[1]+30) > 10 {
		t.Fatalf("smoothed estimates %v, want near [50, -30]", est)
	}
}

func TestOutlierRejection(t *testing.T) {
	cfg := linearCfg(1)
	cfg.OutlierNIS = 25
	cfg.MaxConsecutiveOutliers = 3
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.CheckSync = true
	// Smooth ramp with one absurd glitch.
	data := gen.Ramp(200, 0, 1, 0, 1)
	data[100].Values[0] = 1e5
	m, err := sess.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.OutliersRejected == 0 {
		t.Fatal("glitch was not rejected")
	}
	// The glitch must not have been transmitted as a correction: the
	// server estimate right after must still be near the ramp.
	est, _ := sess.Server().Estimate()
	if math.Abs(est[0]-200) > 20 {
		t.Fatalf("final estimate %v polluted by outlier", est[0])
	}
}

func TestOutlierEscapeAfterRegimeChange(t *testing.T) {
	// A genuine level shift initially looks like outliers; after
	// MaxConsecutiveOutliers readings the protocol must force an update
	// and re-converge.
	cfg := Config{SourceID: "s1", Model: model.Constant(1, 0.05, 0.05), Delta: 1, OutlierNIS: 25, MaxConsecutiveOutliers: 3}
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.CheckSync = true
	var data []stream.Reading
	for i := 0; i < 50; i++ {
		data = append(data, stream.Reading{Seq: i, Values: []float64{0}})
	}
	for i := 50; i < 100; i++ {
		data = append(data, stream.Reading{Seq: i, Values: []float64{500}})
	}
	if _, err := sess.Run(data); err != nil {
		t.Fatal(err)
	}
	est, _ := sess.Server().Estimate()
	if math.Abs(est[0]-500) > 5 {
		t.Fatalf("estimate %v never re-converged after regime change", est[0])
	}
}

func TestSessionMetricsAccounting(t *testing.T) {
	sess, err := NewSession(linearCfg(0.001))
	if err != nil {
		t.Fatal(err)
	}
	// Tiny delta: every reading of a noisy walk transmits.
	data := gen.RandomWalk(100, 0, 5, 3)
	m, err := sess.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Updates < 95 {
		t.Fatalf("updates = %d, want nearly all of 100", m.Updates)
	}
	if m.BytesSent != sess.Source().Stats().BytesSent {
		t.Fatalf("session bytes %d != source bytes %d", m.BytesSent, sess.Source().Stats().BytesSent)
	}
	wantBytes := 0
	for i := 0; i < m.Updates; i++ {
		wantBytes += Update{SourceID: "s1", Values: []float64{0}}.WireBytes()
	}
	if m.BytesSent != wantBytes {
		t.Fatalf("bytes = %d, want %d", m.BytesSent, wantBytes)
	}
	if s := m.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestMetricsZeroReadings(t *testing.T) {
	var m Metrics
	if m.PercentUpdates() != 0 || m.AvgErr() != 0 || m.AvgErrRaw() != 0 {
		t.Fatal("zero-reading metrics must be zero")
	}
}

func TestAdaptiveSampler(t *testing.T) {
	if _, err := NewAdaptiveSampler(0, 0.5, 4); err == nil {
		t.Fatal("accepted delta=0")
	}
	if _, err := NewAdaptiveSampler(1, 0, 4); err == nil {
		t.Fatal("accepted alpha=0")
	}
	if _, err := NewAdaptiveSampler(1, 0.5, 0); err == nil {
		t.Fatal("accepted maxStride=0")
	}
	s, err := NewAdaptiveSampler(10, 0.8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stride() != 1 {
		t.Fatalf("initial stride = %d, want 1", s.Stride())
	}
	// Consistently tiny errors → stride widens to max.
	for i := 0; i < 20; i++ {
		s.Observe(0.01)
	}
	if s.Stride() != 8 {
		t.Fatalf("stride after low errors = %d, want 8", s.Stride())
	}
	// Large errors → snap back to 1.
	for i := 0; i < 20; i++ {
		s.Observe(9)
	}
	if s.Stride() != 1 {
		t.Fatalf("stride after high errors = %d, want 1", s.Stride())
	}
	if s.Ratio() <= 0.5 {
		t.Fatalf("ratio = %v, want > 0.5 after large errors", s.Ratio())
	}
}

func TestUpdateWireBytes(t *testing.T) {
	u := Update{SourceID: "abc", Values: []float64{1, 2}}
	if got := u.WireBytes(); got != 8+4+3+16 {
		t.Fatalf("WireBytes = %d, want %d", got, 8+4+3+16)
	}
}

func TestTransportFunc(t *testing.T) {
	called := false
	tr := TransportFunc(func(Update) error { called = true; return nil })
	if err := tr.Send(Update{}); err != nil || !called {
		t.Fatal("TransportFunc did not dispatch")
	}
}

func TestSessionOnMovingObjectEndToEnd(t *testing.T) {
	// Full Example 1 path: 2-D moving object with the paper's linear
	// model, checking suppression and bounded error at delta=3.
	data := gen.MovingObject(gen.MovingObjectConfig{N: 2000, DT: 0.1, MaxSpeed: 500, MinSegment: 20, MaxSegment: 200, NoiseStd: 0.1, Seed: 1})
	cfg := Config{SourceID: "obj", Model: model.Linear(2, 0.1, 0.05, 0.05), Delta: 3}
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.CheckSync = true
	m, err := sess.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.PercentUpdates() > 60 {
		t.Fatalf("linear DKF on moving object sent %.1f%%; suppression broken", m.PercentUpdates())
	}
	if m.AvgErr() > 2*3 {
		t.Fatalf("avg error %v too large for delta 3", m.AvgErr())
	}
}
