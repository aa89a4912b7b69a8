// Benchmarks regenerating every table and figure of the paper's
// evaluation, one benchmark per artefact, plus the ablation benches
// called out in DESIGN.md §6. Each figure bench runs the full workload
// through the relevant scheme per iteration and reports the figure's
// headline quantity (e.g. %updates) via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates both the performance numbers
// and the experimental result. The Riccati ablation (§3.2 case 5) is
// BenchmarkFilterStep: its dense cases run on the covariance cycle, its
// -sparse cases on the full recursion.
package streamkf_test

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"streamkf"
	"streamkf/internal/baseline"
	"streamkf/internal/core"
	"streamkf/internal/experiments"
	"streamkf/internal/gen"
	"streamkf/internal/mat"
	"streamkf/internal/model"
	"streamkf/internal/stream"
)

// runSession is the benchmark unit of work for a DKF curve point.
func runSession(b *testing.B, m model.Model, delta, f float64, data []stream.Reading) core.Metrics {
	b.Helper()
	sess, err := core.NewSession(core.Config{SourceID: "bench", Model: m, Delta: delta, F: f})
	if err != nil {
		b.Fatal(err)
	}
	metrics, err := sess.Run(data)
	if err != nil {
		b.Fatal(err)
	}
	return metrics
}

func runCacheBench(b *testing.B, width float64, dims int, data []stream.Reading) baseline.Metrics {
	b.Helper()
	c, err := baseline.NewCache(width, dims)
	if err != nil {
		b.Fatal(err)
	}
	m, err := c.Run(data)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// --- Figure 3: dataset generation ---

func BenchmarkFig3MovingObjectDataset(b *testing.B) {
	cfg := gen.DefaultMovingObject()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if data := gen.MovingObject(cfg); len(data) != cfg.N {
			b.Fatal("bad dataset")
		}
	}
}

// --- Figures 4 and 5: Example 1 at the paper's headline δ = 3 ---

func BenchmarkFig4Example1Updates(b *testing.B) {
	data := gen.MovingObject(gen.DefaultMovingObject())
	const delta = 3
	b.Run("caching", func(b *testing.B) {
		b.ReportAllocs()
		var m baseline.Metrics
		for i := 0; i < b.N; i++ {
			m = runCacheBench(b, 2*delta, 2, data)
		}
		b.ReportMetric(m.PercentUpdates(), "%updates")
	})
	b.Run("constantKF", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, model.Constant(2, 0.05, 0.05), delta, 0, data)
		}
		b.ReportMetric(m.PercentUpdates(), "%updates")
	})
	b.Run("linearKF", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, model.Linear(2, 0.1, 0.05, 0.05), delta, 0, data)
		}
		b.ReportMetric(m.PercentUpdates(), "%updates")
	})
}

func BenchmarkFig5Example1AvgError(b *testing.B) {
	data := gen.MovingObject(gen.DefaultMovingObject())
	const delta = 3
	b.Run("caching", func(b *testing.B) {
		b.ReportAllocs()
		var m baseline.Metrics
		for i := 0; i < b.N; i++ {
			m = runCacheBench(b, 2*delta, 2, data)
		}
		b.ReportMetric(m.AvgErr(), "avgErr")
	})
	b.Run("constantKF", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, model.Constant(2, 0.05, 0.05), delta, 0, data)
		}
		b.ReportMetric(m.AvgErr(), "avgErr")
	})
	b.Run("linearKF", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, model.Linear(2, 0.1, 0.05, 0.05), delta, 0, data)
		}
		b.ReportMetric(m.AvgErr(), "avgErr")
	})
}

// --- Figure 6: dataset generation ---

func BenchmarkFig6PowerLoadDataset(b *testing.B) {
	cfg := gen.DefaultPowerLoad()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if data := gen.PowerLoad(cfg); len(data) != cfg.N {
			b.Fatal("bad dataset")
		}
	}
}

// --- Figures 7 and 8: Example 2 at δ = 50 ---

func example2SinusoidalModel() model.Model {
	cfg := gen.DefaultPowerLoad()
	omega := 2 * math.Pi / 24
	return model.Sinusoidal(omega, -omega*9, cfg.DailyAmp*omega, 0.05, 0.05)
}

func BenchmarkFig7Example2Updates(b *testing.B) {
	data := gen.PowerLoad(gen.DefaultPowerLoad())
	const delta = 50
	b.Run("caching", func(b *testing.B) {
		b.ReportAllocs()
		var m baseline.Metrics
		for i := 0; i < b.N; i++ {
			m = runCacheBench(b, 2*delta, 1, data)
		}
		b.ReportMetric(m.PercentUpdates(), "%updates")
	})
	b.Run("linearKF", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, model.Linear(1, 1, 0.05, 0.05), delta, 0, data)
		}
		b.ReportMetric(m.PercentUpdates(), "%updates")
	})
	b.Run("sinusoidalKF", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, example2SinusoidalModel(), delta, 0, data)
		}
		b.ReportMetric(m.PercentUpdates(), "%updates")
	})
}

func BenchmarkFig8Example2AvgError(b *testing.B) {
	data := gen.PowerLoad(gen.DefaultPowerLoad())
	const delta = 50
	b.Run("caching", func(b *testing.B) {
		b.ReportAllocs()
		var m baseline.Metrics
		for i := 0; i < b.N; i++ {
			m = runCacheBench(b, 2*delta, 1, data)
		}
		b.ReportMetric(m.AvgErr(), "avgErr")
	})
	b.Run("linearKF", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, model.Linear(1, 1, 0.05, 0.05), delta, 0, data)
		}
		b.ReportMetric(m.AvgErr(), "avgErr")
	})
	b.Run("sinusoidalKF", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, example2SinusoidalModel(), delta, 0, data)
		}
		b.ReportMetric(m.AvgErr(), "avgErr")
	})
}

// --- Figure 9: dataset generation ---

func BenchmarkFig9HTTPTrafficDataset(b *testing.B) {
	cfg := gen.DefaultHTTPTraffic()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if data := gen.HTTPTraffic(cfg); len(data) != cfg.N {
			b.Fatal("bad dataset")
		}
	}
}

// --- Figure 10: smoothing adherence at F = 1e-9 ---

func BenchmarkFig10SmoothingVsMovingAverage(b *testing.B) {
	data := gen.HTTPTraffic(gen.DefaultHTTPTraffic())
	raw := stream.Values(data, 0)
	b.Run("movingAverage", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ma, err := baseline.NewMovingAverage(20)
			if err != nil {
				b.Fatal(err)
			}
			ma.Smooth(raw)
		}
	})
	b.Run("kfSmoother", func(b *testing.B) {
		b.ReportAllocs()
		var rmsToMA float64
		for i := 0; i < b.N; i++ {
			ma, err := baseline.NewMovingAverage(20)
			if err != nil {
				b.Fatal(err)
			}
			maVals := ma.Smooth(raw)
			m := model.Smoothing(1e-9, 1)
			f, err := m.NewFilter(raw[:1])
			if err != nil {
				b.Fatal(err)
			}
			var sum float64
			prevOut := raw[0]
			for j := 1; j < len(raw); j++ {
				f.Predict()
				if err := f.Correct(mat.Vec(raw[j])); err != nil {
					b.Fatal(err)
				}
				prevOut = f.PredictedMeasurement().At(0, 0)
				d := prevOut - maVals[j]
				sum += d * d
			}
			rmsToMA = math.Sqrt(sum / float64(len(raw)-1))
		}
		b.ReportMetric(rmsToMA, "rmsToMA")
	})
}

// --- Figure 11: DKF on smoothed traffic, F = 1e-7, δ = 10 ---

func BenchmarkFig11SmoothedDKFUpdates(b *testing.B) {
	data := gen.HTTPTraffic(gen.DefaultHTTPTraffic())
	const delta = 10
	b.Run("constantKF", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, model.Constant(1, 0.05, 0.05), delta, 1e-7, data)
		}
		b.ReportMetric(m.PercentUpdates(), "%updates")
	})
	b.Run("linearKF", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, model.Linear(1, 1, 0.05, 0.05), delta, 1e-7, data)
		}
		b.ReportMetric(m.PercentUpdates(), "%updates")
	})
}

// --- Figure 12: update rate vs smoothing factor at δ = 10 ---

func BenchmarkFig12SmoothingFactorSweep(b *testing.B) {
	data := gen.HTTPTraffic(gen.DefaultHTTPTraffic())
	for _, f := range []float64{1e-9, 1e-5, 1e-1} {
		f := f
		b.Run(fmtF(f), func(b *testing.B) {
			b.ReportAllocs()
			var m core.Metrics
			for i := 0; i < b.N; i++ {
				m = runSession(b, model.Constant(1, 0.05, 0.05), 10, f, data)
			}
			b.ReportMetric(m.PercentUpdates(), "%updates")
		})
	}
}

func fmtF(f float64) string {
	switch f {
	case 1e-9:
		return "F=1e-9"
	case 1e-5:
		return "F=1e-5"
	default:
		return "F=1e-1"
	}
}

// --- Table 1: quantified behavioural comparison ---

func BenchmarkTable1Comparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1Summary(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: correcting the mirror on every reading breaks synchrony ---

func BenchmarkAblationCorrectAlways(b *testing.B) {
	b.ReportAllocs()
	data := gen.MovingObject(gen.DefaultMovingObject())
	m := model.Linear(2, 0.1, 0.05, 0.05)
	const delta = 3.0
	var divergence float64
	for i := 0; i < b.N; i++ {
		// Protocol variant: the mirror corrects on EVERY reading while
		// still transmitting only out-of-bound ones, so the server (which
		// can only correct on transmissions) drifts away from what the
		// source believes the server knows.
		mirror, err := m.NewFilter(data[0].Values)
		if err != nil {
			b.Fatal(err)
		}
		server, err := m.NewFilter(data[0].Values)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range data[1:] {
			mirror.Predict()
			server.Predict()
			pred := mirror.PredictedMeasurement().VecSlice()
			if !stream.WithinPrecision(pred, r.Values, delta) {
				if err := server.Correct(mat.Vec(r.Values...)); err != nil {
					b.Fatal(err)
				}
			}
			if err := mirror.Correct(mat.Vec(r.Values...)); err != nil {
				b.Fatal(err)
			}
			sum += stream.AbsErrorSum(mirror.PredictedMeasurement().VecSlice(), server.PredictedMeasurement().VecSlice())
		}
		divergence = sum / float64(len(data)-1)
	}
	b.ReportMetric(divergence, "mirrorDivergence")
}

// --- Ablation: per-dimension max-abs precision test vs L2-norm test ---

func BenchmarkAblationNormTest(b *testing.B) {
	data := gen.MovingObject(gen.DefaultMovingObject())
	m := model.Linear(2, 0.1, 0.05, 0.05)
	const delta = 3.0
	b.Run("maxAbs", func(b *testing.B) {
		b.ReportAllocs()
		var metrics core.Metrics
		for i := 0; i < b.N; i++ {
			metrics = runSession(b, m, delta, 0, data)
		}
		b.ReportMetric(metrics.PercentUpdates(), "%updates")
	})
	b.Run("l2norm", func(b *testing.B) {
		b.ReportAllocs()
		var pct float64
		for i := 0; i < b.N; i++ {
			f, err := m.NewFilter(data[0].Values)
			if err != nil {
				b.Fatal(err)
			}
			updates := 1
			for _, r := range data[1:] {
				f.Predict()
				pred := f.PredictedMeasurement().VecSlice()
				var l2 float64
				for j := range pred {
					d := pred[j] - r.Values[j]
					l2 += d * d
				}
				if math.Sqrt(l2) > delta {
					if err := f.Correct(mat.Vec(r.Values...)); err != nil {
						b.Fatal(err)
					}
					updates++
				}
			}
			pct = 100 * float64(updates) / float64(len(data))
		}
		b.ReportMetric(pct, "%updates")
	})
}

// --- Ablation: smoothing on vs off for the noisy workload (fig11 vs fig4 path) ---

func BenchmarkAblationSmoothing(b *testing.B) {
	data := gen.HTTPTraffic(gen.DefaultHTTPTraffic())
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, model.Linear(1, 1, 0.05, 0.05), 10, 0, data)
		}
		b.ReportMetric(m.PercentUpdates(), "%updates")
	})
	b.Run("smoothed", func(b *testing.B) {
		b.ReportAllocs()
		var m core.Metrics
		for i := 0; i < b.N; i++ {
			m = runSession(b, model.Linear(1, 1, 0.05, 0.05), 10, 1e-7, data)
		}
		b.ReportMetric(m.PercentUpdates(), "%updates")
	})
}

// --- Protocol micro-benchmarks: cost per reading ---

func BenchmarkDKFStepLinear2D(b *testing.B) {
	data := gen.MovingObject(gen.DefaultMovingObject())
	sess, err := streamkf.NewSession(streamkf.Config{
		SourceID: "bench",
		Model:    streamkf.LinearModel(2, 0.1, 0.05, 0.05),
		Delta:    3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := data[i%len(data)]
		r.Seq = i // keep sequence numbers consecutive across laps
		if _, err := sess.Step(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterStep measures the raw per-reading Predict+Correct cost
// for the paper's model sizes: the scalar constant model (n=1, m=1), the
// 1-D linear model (n=2, m=1), and the 2-D linear tracking model of
// Example 1 (n=4, m=2). Steady state must report 0 allocs/op. Dense, the
// scalar and linear1d covariances settle onto their cycle, which these
// cases then time; the -sparse cases put one predict-only step before
// each Step (the tcp_sparse pattern), which keeps them on the full
// Riccati path.
func BenchmarkFilterStep(b *testing.B) {
	cases := []struct {
		name   string
		m      model.Model
		z      []float64
		sparse bool
	}{
		{"scalar", model.Constant(1, 0.05, 0.05), []float64{1.5}, false},
		{"linear1d", model.Linear(1, 1, 0.05, 0.05), []float64{1.5}, false},
		{"linear2d", model.Linear(2, 0.1, 0.05, 0.05), []float64{1.5, -0.5}, false},
		{"scalar-sparse", model.Constant(1, 0.05, 0.05), []float64{1.5}, true},
		{"linear1d-sparse", model.Linear(1, 1, 0.05, 0.05), []float64{1.5}, true},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			f, err := tc.m.NewFilter(tc.z)
			if err != nil {
				b.Fatal(err)
			}
			z := mat.Vec(tc.z...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.sparse {
					f.Predict()
				}
				if err := f.Step(z); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerIngestParallel measures the DSMS server's update-ingest
// throughput when every core feeds its own stream: one source per
// GOMAXPROCS goroutine, each goroutine hammering HandleUpdate for its
// source. With a global server lock this cannot scale past one core;
// with per-stream locking it should.
func BenchmarkServerIngestParallel(b *testing.B) {
	nSrc := runtime.GOMAXPROCS(0)
	catalog := streamkf.DefaultCatalog(1)
	server := streamkf.NewDSMSServer(catalog)
	for i := 0; i < nSrc; i++ {
		src := fmt.Sprintf("s%d", i)
		if err := server.Register(stream.Query{ID: "q" + src, SourceID: src, Delta: 1e-9, Model: "linear"}); err != nil {
			b.Fatal(err)
		}
		if _, err := server.InstallFor(src); err != nil {
			b.Fatal(err)
		}
		if err := server.HandleUpdate(core.Update{SourceID: src, Seq: 0, Values: []float64{0}, Bootstrap: true}); err != nil {
			b.Fatal(err)
		}
	}
	var nextSrc atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := fmt.Sprintf("s%d", int(nextSrc.Add(1)-1)%nSrc)
		seq := 1
		vals := []float64{0}
		for pb.Next() {
			vals[0] = float64(seq)
			if err := server.HandleUpdate(core.Update{SourceID: src, Seq: seq, Values: vals}); err != nil {
				b.Fatal(err)
			}
			seq++
		}
	})
}

func BenchmarkCacheStep(b *testing.B) {
	data := gen.MovingObject(gen.DefaultMovingObject())
	c, err := baseline.NewCache(6, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Process(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}
