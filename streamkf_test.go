package streamkf_test

import (
	"math"
	"testing"

	"streamkf"
)

// TestFacadeSessionRoundTrip exercises the re-exported DKF surface the
// way a downstream user would.
func TestFacadeSessionRoundTrip(t *testing.T) {
	m := streamkf.LinearModel(1, 1, 0.05, 0.05)
	sess, err := streamkf.NewSession(streamkf.Config{SourceID: "s", Model: m, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 3 * float64(i)
	}
	data := streamkf.FromValues(vals, 1)
	for _, r := range data {
		if _, err := sess.Step(r); err != nil {
			t.Fatal(err)
		}
	}
	got := sess.Metrics()
	if got.Readings != 200 {
		t.Fatalf("readings = %d", got.Readings)
	}
	if got.PercentUpdates() > 20 {
		t.Fatalf("%% updates = %v on a noiseless ramp", got.PercentUpdates())
	}
}

func TestFacadeModels(t *testing.T) {
	models := []streamkf.Model{
		streamkf.ConstantModel(2, 0.05, 0.05),
		streamkf.LinearModel(2, 0.1, 0.05, 0.05),
		streamkf.AccelerationModel(1, 0.1, 0.05, 0.05),
		streamkf.JerkModel(1, 0.1, 0.05, 0.05),
		streamkf.SinusoidalModel(0.26, 0, 10, 0.05, 0.05),
		streamkf.SmoothingModel(1e-7, 1),
	}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestFacadeGeneratorsAndBaselines(t *testing.T) {
	data := streamkf.MovingObject(streamkf.DefaultMovingObject())
	if len(data) != 4000 {
		t.Fatalf("moving object len = %d", len(data))
	}
	if n := len(streamkf.PowerLoad(streamkf.DefaultPowerLoad())); n != 5831 {
		t.Fatalf("power load len = %d", n)
	}
	if n := len(streamkf.HTTPTraffic(streamkf.DefaultHTTPTraffic())); n != 5000 {
		t.Fatalf("traffic len = %d", n)
	}
	cache, err := streamkf.NewCacheBaseline(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := cache.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Readings != len(data) {
		t.Fatalf("baseline readings = %d", bm.Readings)
	}
	if _, err := streamkf.NewMovingAverage(10); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFilterLayer(t *testing.T) {
	if m := streamkf.NewMatrix(2, 3); m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("NewMatrix dims")
	}
}

func TestFacadeDSMS(t *testing.T) {
	catalog := streamkf.DefaultCatalog(1)
	srv := streamkf.NewDSMSServer(catalog)
	q := streamkf.Query{ID: "q", SourceID: "s", Delta: 2, Model: "linear"}
	if err := srv.Register(q); err != nil {
		t.Fatal(err)
	}
	cfg, err := srv.InstallFor("s")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := streamkf.NewAgent(cfg, streamkf.TransportFunc(func(u streamkf.Update) error {
		return srv.HandleUpdate(u)
	}))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(2 * i)
	}
	if err := agent.Run(streamkf.NewSliceSource(streamkf.FromValues(vals, 1))); err != nil {
		t.Fatal(err)
	}
	ans, err := srv.Answer("q", 99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans[0]-198) > 4 {
		t.Fatalf("answer = %v, want ~198", ans[0])
	}
}

func TestFacadeSynopsisAndAdapt(t *testing.T) {
	m := streamkf.LinearModel(1, 1, 0.05, 0.05)
	store, err := streamkf.NewSynopsis(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	for _, r := range streamkf.FromValues(vals, 1) {
		if err := store.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if store.CompressionRatio() > 0.2 {
		t.Fatalf("compression ratio %v on a ramp", store.CompressionRatio())
	}
	blob, err := store.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := streamkf.DecodeSynopsis(blob, func(string) (streamkf.Model, error) { return m, nil })
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != store.Len() {
		t.Fatal("synopsis round trip length mismatch")
	}

	sel, err := streamkf.NewSelector([]streamkf.Model{
		streamkf.ConstantModel(1, 0.05, 0.05),
		streamkf.LinearModel(1, 1, 0.05, 0.05),
	}, 20, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := streamkf.NewAdaptiveRunner("s", 2, 0, sel)
	if err != nil {
		t.Fatal(err)
	}
	metrics, _, err := runner.Run(streamkf.FromValues(vals, 1))
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Readings != 100 {
		t.Fatalf("adaptive readings = %d", metrics.Readings)
	}
}

func TestFacadeEnergy(t *testing.T) {
	acct, err := streamkf.NewEnergyAccount(streamkf.DefaultEnergyModel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	acct.ChargeTransmit(100)
	acct.ChargeCompute(1000)
	if acct.Spent() <= 0 {
		t.Fatal("no energy recorded")
	}
}
