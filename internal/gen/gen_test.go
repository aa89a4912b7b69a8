package gen

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"streamkf/internal/stream"
)

func TestMovingObjectShape(t *testing.T) {
	cfg := DefaultMovingObject()
	data := MovingObject(cfg)
	if len(data) != cfg.N {
		t.Fatalf("len = %d, want %d", len(data), cfg.N)
	}
	if len(data[0].Values) != 2 {
		t.Fatalf("values per reading = %d, want 2", len(data[0].Values))
	}
	if math.Abs(data[1].Time-cfg.DT) > 1e-12 {
		t.Fatalf("time step = %v, want %v", data[1].Time, cfg.DT)
	}
}

func TestMovingObjectSpeedBound(t *testing.T) {
	cfg := DefaultMovingObject()
	cfg.NoiseStd = 0 // measure true kinematics
	data := MovingObject(cfg)
	for k := 1; k < len(data); k++ {
		dx := data[k].Values[0] - data[k-1].Values[0]
		dy := data[k].Values[1] - data[k-1].Values[1]
		speed := math.Hypot(dx, dy) / cfg.DT
		if speed > cfg.MaxSpeed+1e-9 {
			t.Fatalf("speed at k=%d is %v, exceeds max %v", k, speed, cfg.MaxSpeed)
		}
	}
}

func TestMovingObjectPiecewiseLinear(t *testing.T) {
	// Within a segment, consecutive velocity vectors are identical; count
	// the number of distinct velocity changes and check it is far below N
	// (i.e. the trajectory really is piecewise linear, not a random walk).
	cfg := DefaultMovingObject()
	cfg.NoiseStd = 0
	data := MovingObject(cfg)
	changes := 0
	var pvx, pvy float64
	for k := 1; k < len(data); k++ {
		vx := (data[k].Values[0] - data[k-1].Values[0]) / cfg.DT
		vy := (data[k].Values[1] - data[k-1].Values[1]) / cfg.DT
		if k > 1 && (math.Abs(vx-pvx) > 1e-6 || math.Abs(vy-pvy) > 1e-6) {
			changes++
		}
		pvx, pvy = vx, vy
	}
	if changes == 0 {
		t.Fatal("trajectory never changes heading")
	}
	if changes > cfg.N/cfg.MinSegment {
		t.Fatalf("%d velocity changes for %d points: not piecewise linear", changes, cfg.N)
	}
}

func TestMovingObjectDeterministic(t *testing.T) {
	a := MovingObject(DefaultMovingObject())
	b := MovingObject(DefaultMovingObject())
	for k := range a {
		if a[k].Values[0] != b[k].Values[0] || a[k].Values[1] != b[k].Values[1] {
			t.Fatalf("non-deterministic at k=%d", k)
		}
	}
	cfg := DefaultMovingObject()
	cfg.Seed = 99
	c := MovingObject(cfg)
	if a[100].Values[0] == c[100].Values[0] {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestPowerLoadShape(t *testing.T) {
	cfg := DefaultPowerLoad()
	data := PowerLoad(cfg)
	if len(data) != cfg.N {
		t.Fatalf("len = %d, want %d", len(data), cfg.N)
	}
	// The series must oscillate around Base with daily period: the mean
	// must be near Base and the lag-24 autocorrelation strongly positive.
	vals := stream.Values(data, 0)
	mean := meanOf(vals)
	if math.Abs(mean-cfg.Base) > cfg.DailyAmp/4 {
		t.Fatalf("mean = %v, want near %v", mean, cfg.Base)
	}
	if ac := autocorr(vals, 24); ac < 0.5 {
		t.Fatalf("lag-24 autocorrelation = %v, want > 0.5 (diurnal cycle)", ac)
	}
	if ac12 := autocorr(vals, 12); ac12 > 0 {
		t.Fatalf("lag-12 autocorrelation = %v, want negative (half period)", ac12)
	}
}

func TestHTTPTrafficShape(t *testing.T) {
	cfg := DefaultHTTPTraffic()
	data := HTTPTraffic(cfg)
	if len(data) != cfg.N {
		t.Fatalf("len = %d, want %d", len(data), cfg.N)
	}
	vals := stream.Values(data, 0)
	for i, v := range vals {
		if v < 0 {
			t.Fatalf("negative packet count %v at %d", v, i)
		}
	}
	// Noise-dominated: weak short-lag autocorrelation relative to the
	// power-load series.
	if ac := autocorr(vals, 1); ac > 0.9 {
		t.Fatalf("lag-1 autocorrelation = %v; series too smooth for Example 3", ac)
	}
	// But bursts must exist: max well above base rate.
	var mx float64
	for _, v := range vals {
		mx = math.Max(mx, v)
	}
	if mx < cfg.BaseRate+cfg.BurstAmp {
		t.Fatalf("max = %v, no visible bursts", mx)
	}
}

func TestPrimitives(t *testing.T) {
	r := Ramp(10, 5, 2, 0, 1)
	if r[9].Values[0] != 5+2*9 {
		t.Fatalf("Ramp end = %v", r[9].Values[0])
	}
	w := RandomWalk(50, 0, 1, 7)
	w2 := RandomWalk(50, 0, 1, 7)
	for i := range w {
		if w[i].Values[0] != w2[i].Values[0] {
			t.Fatal("RandomWalk not deterministic")
		}
	}
}

func TestGeneratorsHandleZeroN(t *testing.T) {
	if MovingObject(MovingObjectConfig{}) != nil {
		t.Fatal("MovingObject(N=0) != nil")
	}
	if PowerLoad(PowerLoadConfig{}) != nil {
		t.Fatal("PowerLoad(N=0) != nil")
	}
	if HTTPTraffic(HTTPTrafficConfig{}) != nil {
		t.Fatal("HTTPTraffic(N=0) != nil")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	data := MovingObject(MovingObjectConfig{N: 20, DT: 0.1, MaxSpeed: 100, MinSegment: 5, MaxSegment: 10, Seed: 4})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, data); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(data) {
		t.Fatalf("round trip len = %d, want %d", len(back), len(data))
	}
	for i := range data {
		if data[i].Seq != back[i].Seq || data[i].Time != back[i].Time ||
			data[i].Values[0] != back[i].Values[0] || data[i].Values[1] != back[i].Values[1] {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, data[i], back[i])
		}
	}
}

func TestCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil || got != nil {
		t.Fatalf("empty round trip = %v, %v", got, err)
	}
}

func TestReadCSVBadInput(t *testing.T) {
	cases := []string{
		"bogus,header\n1,2\n",
		"seq,time,v0\nnotanint,0,1\n",
		"seq,time,v0\n1,notafloat,1\n",
		"seq,time,v0\n1,0,notafloat\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func meanOf(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// autocorr computes the lag-l sample autocorrelation.
func autocorr(vals []float64, lag int) float64 {
	m := meanOf(vals)
	var num, den float64
	for i := 0; i+lag < len(vals); i++ {
		num += (vals[i] - m) * (vals[i+lag] - m)
	}
	for _, v := range vals {
		den += (v - m) * (v - m)
	}
	return num / den
}
