package streamkf_test

import (
	"math"
	"strings"
	"testing"

	"streamkf"
)

func TestFacadeEKFAndIMM(t *testing.T) {
	pend := streamkf.PendulumModel(0.02, 9.8, 0.05, 1e-6, 1e-4)
	ekf, err := pend.NewEKF([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ekf.Step(streamkf.MatrixFromRows([][]float64{{0.5}})); err != nil {
		t.Fatal(err)
	}
	// Same path via the facade's NewEKF.
	if _, err := streamkf.NewEKF(streamkf.EKFConfig{
		F:    pend.F,
		FJac: pend.FJac,
		H:    pend.H,
		HJac: pend.HJac,
		Q:    pend.Q,
		R:    pend.R,
		X0:   pend.Init([]float64{0.5}),
	}); err != nil {
		t.Fatal(err)
	}

	mk := func(phi [][]float64) *streamkf.Filter {
		f, err := streamkf.NewFilter(streamkf.FilterConfig{
			Phi: func(int) *streamkf.Matrix { return streamkf.MatrixFromRows(phi) },
			H:   streamkf.MatrixFromRows([][]float64{{1, 0}}),
			Q:   streamkf.MatrixFromRows([][]float64{{0.01, 0}, {0, 0.01}}),
			R:   streamkf.MatrixFromRows([][]float64{{0.25}}),
			X0:  streamkf.MatrixFromRows([][]float64{{0}, {0}}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	im, err := streamkf.NewIMM(streamkf.IMMConfig{Filters: []*streamkf.Filter{
		mk([][]float64{{1, 0}, {0, 0}}),
		mk([][]float64{{1, 1}, {0, 1}}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 40; k++ {
		if err := im.Step(streamkf.MatrixFromRows([][]float64{{3}})); err != nil {
			t.Fatal(err)
		}
	}
	if got := im.State().At(0, 0); math.Abs(got-3) > 0.5 {
		t.Fatalf("IMM estimate %v, want ~3", got)
	}
}

func TestFacadeNonlinearSession(t *testing.T) {
	sess, err := streamkf.NewNonlinearSession(streamkf.NonlinearConfig{
		SourceID: "pend",
		Model:    streamkf.PendulumModel(0.02, 9.8, 0.05, 1e-6, 1e-4),
		Delta:    0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	th, om := 1.0, 0.0
	for k := 0; k < 200; k++ {
		om = (1-0.05*0.02)*om - 9.8*math.Sin(th)*0.02
		th += om * 0.02
		if _, err := sess.Step(streamkf.Reading{Seq: k, Values: []float64{th}}); err != nil {
			t.Fatal(err)
		}
	}
	if !sess.InSync() {
		t.Fatal("facade nonlinear session out of sync")
	}
	if sess.Metrics().PercentUpdates() > 50 {
		t.Fatalf("%% updates = %v", sess.Metrics().PercentUpdates())
	}
}

func TestFacadeSampledAndSmoother(t *testing.T) {
	sampler, err := streamkf.NewAdaptiveSampler(2, 0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := streamkf.NewSampledSession(streamkf.Config{
		SourceID: "s",
		Model:    streamkf.LinearModel(1, 1, 0.05, 0.05),
		Delta:    2,
	}, sampler)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i)
	}
	m, err := sess.Run(streamkf.FromValues(vals, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Skipped == 0 {
		t.Fatal("sampled session never slept on a ramp")
	}
}

func TestFacadeCQLAndHistory(t *testing.T) {
	catalog := streamkf.NewCatalog()
	lin := streamkf.LinearModel(1, 1, 0.05, 0.05)
	catalog.Register(lin)
	server := streamkf.NewDSMSServer(catalog)
	st, err := streamkf.ParseCQL("SELECT VALUE FROM s MODEL linear WITHIN 2 AS q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "q" {
		t.Fatalf("parsed name %q", st.Name)
	}
	if _, err := streamkf.InstallCQL(server, "SELECT VALUE FROM s MODEL linear WITHIN 2 AS q"); err != nil {
		t.Fatal(err)
	}
	if err := server.EnableHistory("s"); err != nil {
		t.Fatal(err)
	}
	cfg, err := server.InstallFor("s")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := streamkf.NewAgent(cfg, streamkf.TransportFunc(server.HandleUpdate))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 2 * float64(i)
	}
	if err := agent.Run(streamkf.NewSliceSource(streamkf.FromValues(vals, 1))); err != nil {
		t.Fatal(err)
	}
	past, err := server.AnswerAt("q", 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(past[0]-84) > 3 {
		t.Fatalf("history answer %v, want ~84", past[0])
	}
}

func TestFacadeTransportsAndScoring(t *testing.T) {
	cfg := streamkf.Config{SourceID: "s", Model: streamkf.LinearModel(1, 1, 0.05, 0.05), Delta: 1}
	sess, err := streamkf.NewSessionWithTransport(cfg, func(direct streamkf.Transport) (streamkf.Transport, error) {
		lossy, err := streamkf.NewLossyTransport(direct, 0.2, streamkf.LossDetect, 3)
		if err != nil {
			return nil, err
		}
		return streamkf.NewReliableTransport(lossy, 20)
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	if _, err := sess.Run(streamkf.FromValues(vals, 1)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(streamkf.ErrDropped.Error(), "dropped") {
		t.Fatal("ErrDropped text unexpected")
	}

	sel, err := streamkf.NewSelectorScored([]streamkf.Model{
		streamkf.ConstantModel(1, 0.05, 0.05),
		streamkf.LinearModel(1, 1, 0.05, 0.05),
	}, 10, 1.3, streamkf.ScoreLogLikelihood)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Active().Name != "constant" {
		t.Fatalf("initial active = %s", sel.Active().Name)
	}
}

func TestFacadeSourceServerNodesAndArchive(t *testing.T) {
	cfg := streamkf.Config{SourceID: "s", Model: streamkf.LinearModel(1, 1, 0.05, 0.05), Delta: 1}
	src, err := streamkf.NewSourceNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := streamkf.NewServerNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u, _, err := src.Process(streamkf.Reading{Seq: 0, Values: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ApplyUpdate(*u); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeWindowing(t *testing.T) {
	catalog := streamkf.DefaultCatalog(1)
	server := streamkf.NewDSMSServer(catalog)
	name, err := streamkf.InstallCQL(server, "SELECT AVG FROM z OVER 4 MODEL constant WITHIN 1 AS w")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := server.InstallFor("z")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := streamkf.NewAgent(cfg, streamkf.TransportFunc(server.HandleUpdate))
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Run(streamkf.NewSliceSource(streamkf.FromValues([]float64{7, 7, 7, 7, 7, 7}, 1))); err != nil {
		t.Fatal(err)
	}
	got, err := server.AnswerWindow(name, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-7) > 1 {
		t.Fatalf("windowed CQL answer %v, want ~7", got)
	}
}

func TestFacadeTCP(t *testing.T) {
	catalog := streamkf.DefaultCatalog(1)
	server := streamkf.NewDSMSServer(catalog)
	if err := server.Register(streamkf.Query{ID: "q", SourceID: "s", Delta: 2, Model: "linear"}); err != nil {
		t.Fatal(err)
	}
	ts, err := streamkf.NewTCPServer(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ts.Serve() }()
	defer func() {
		ts.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	agent, err := streamkf.DialSource(ts.Addr(), "s", catalog)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = float64(3 * i)
	}
	if err := agent.Run(streamkf.NewSliceSource(streamkf.FromValues(vals, 1))); err != nil {
		t.Fatal(err)
	}
	qc, err := streamkf.DialQuery(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	ans, err := qc.Ask("q", 49)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans[0]-147) > 4 {
		t.Fatalf("TCP facade answer %v, want ~147", ans[0])
	}
}
