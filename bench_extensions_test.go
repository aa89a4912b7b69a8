// Benchmarks for the extension experiments (the paper's §6 future-work
// items) and the end-to-end DSMS paths.
package streamkf_test

import (
	"testing"

	"streamkf"
	"streamkf/internal/core"
	"streamkf/internal/experiments"
	"streamkf/internal/gen"
	"streamkf/internal/stream"
	"streamkf/internal/synopsis"
)

func BenchmarkExtensionAdaptiveSampling(b *testing.B) {
	b.ReportAllocs()
	data := gen.MovingObject(gen.DefaultMovingObject())
	cfg := core.Config{SourceID: "obj", Model: mustModel(), Delta: 3}
	var m core.SampledMetrics
	for i := 0; i < b.N; i++ {
		sampler, err := core.NewAdaptiveSampler(cfg.Delta, 0.3, 8)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := core.NewSampledSession(cfg, sampler)
		if err != nil {
			b.Fatal(err)
		}
		m, err = sess.Run(data)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.PercentSensed(), "%sensed")
	b.ReportMetric(m.PercentUpdates(), "%updates")
}

func mustModel() streamkf.Model { return streamkf.LinearModel(2, 0.1, 0.05, 0.05) }

func BenchmarkExtensionModelSwitching(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AdaptSummary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionSynopsisStore(b *testing.B) {
	data := gen.PowerLoad(gen.DefaultPowerLoad())
	m := streamkf.LinearModel(1, 1, 0.05, 0.05)
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		store, err := synopsis.New(m, 50)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.AppendAll(data); err != nil {
			b.Fatal(err)
		}
		ratio = store.CompressionRatio()
	}
	b.ReportMetric(100*ratio, "%kept")
}

func BenchmarkExtensionLossyRetry(b *testing.B) {
	b.ReportAllocs()
	data := gen.RandomWalk(2000, 0, 3, 5)
	cfg := core.Config{SourceID: "s", Model: streamkf.LinearModel(1, 1, 0.05, 0.05), Delta: 2}
	for i := 0; i < b.N; i++ {
		sess, err := core.NewSessionWithTransport(cfg, func(direct core.Transport) (core.Transport, error) {
			lossy, err := core.NewLossyTransport(direct, 0.2, core.LossDetect, 11)
			if err != nil {
				return nil, err
			}
			return core.NewReliableTransport(lossy, 100)
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Run(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDSMSInProcessPipeline(b *testing.B) {
	b.ReportAllocs()
	data := gen.Ramp(1000, 0, 1.5, 0.05, 13)
	for i := 0; i < b.N; i++ {
		catalog := streamkf.DefaultCatalog(1)
		server := streamkf.NewDSMSServer(catalog)
		if err := server.Register(stream.Query{ID: "q", SourceID: "s", Delta: 3, Model: "linear"}); err != nil {
			b.Fatal(err)
		}
		cfg, err := server.InstallFor("s")
		if err != nil {
			b.Fatal(err)
		}
		agent, err := streamkf.NewAgent(cfg, core.TransportFunc(func(u core.Update) error {
			return server.HandleUpdate(u)
		}))
		if err != nil {
			b.Fatal(err)
		}
		if err := agent.Run(stream.NewSliceSource(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationJosephForm compares the standard covariance update
// with the Joseph stabilized form (DESIGN.md §6).
func BenchmarkAblationJosephForm(b *testing.B) {
	run := func(b *testing.B, joseph bool) {
		m := streamkf.LinearModel(1, 1, 0.05, 0.05)
		cfg := streamkf.FilterConfig{Phi: m.Phi, H: m.H, Q: m.Q, R: m.R, X0: m.Init([]float64{0}), JosephForm: joseph}
		f, err := streamkf.NewFilter(cfg)
		if err != nil {
			b.Fatal(err)
		}
		z := streamkf.MatrixFromRows([][]float64{{1}})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Step(z); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("standard", func(b *testing.B) { run(b, false) })
	b.Run("joseph", func(b *testing.B) { run(b, true) })
}

// BenchmarkIMMStep measures the per-reading cost of the soft-mixture
// estimator versus a single filter (the N-model price of avoiding hard
// switches).
func BenchmarkIMMStep(b *testing.B) {
	mk := func(phi [][]float64) *streamkf.Filter {
		f, err := streamkf.NewFilter(streamkf.FilterConfig{
			Phi: func(int) *streamkf.Matrix { return streamkf.MatrixFromRows(phi) },
			H:   streamkf.MatrixFromRows([][]float64{{1, 0}}),
			Q:   streamkf.MatrixFromRows([][]float64{{0.01, 0}, {0, 0.01}}),
			R:   streamkf.MatrixFromRows([][]float64{{0.25}}),
			X0:  streamkf.MatrixFromRows([][]float64{{0}, {0}}),
		})
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	im, err := streamkf.NewIMM(streamkf.IMMConfig{Filters: []*streamkf.Filter{
		mk([][]float64{{1, 0}, {0, 0}}),
		mk([][]float64{{1, 1}, {0, 1}}),
	}})
	if err != nil {
		b.Fatal(err)
	}
	z := streamkf.MatrixFromRows([][]float64{{3}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := im.Step(z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistoryReplay measures answering a historical range from the
// update-log synopsis: a window of 1,001 readings, replayed and summed.
func BenchmarkHistoryReplay(b *testing.B) {
	catalog := streamkf.DefaultCatalog(1)
	server := streamkf.NewDSMSServer(catalog)
	w := streamkf.WindowQuery{ID: "q", SourceID: "s", Func: streamkf.AggSum, N: 1001, Delta: 2, Model: "linear"}
	if err := server.RegisterWindow(w); err != nil {
		b.Fatal(err)
	}
	cfg, err := server.InstallFor("s")
	if err != nil {
		b.Fatal(err)
	}
	agent, err := streamkf.NewAgent(cfg, core.TransportFunc(server.HandleUpdate))
	if err != nil {
		b.Fatal(err)
	}
	if err := agent.Run(stream.NewSliceSource(gen.RandomWalk(4000, 0, 1.5, 9))); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.AnswerWindow("q", 2000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCQLParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := streamkf.ParseCQL("SELECT AVG FROM z1, z2, z3 MODEL linear WITHIN 50 SMOOTH 1e-7 AS load"); err != nil {
			b.Fatal(err)
		}
	}
}
