package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"streamkf/internal/model"
	"streamkf/internal/stream"
)

// sparseBlock is the benchmark harness's smooth input block (bench/gen.go,
// copied so that this package does not import the harness): three
// whole-period sinusoids plus N(0, 0.05²) noise from a fixed seed, over
// 65,536 readings, rotated, mirrored and shifted to a level by seed.
func sparseBlock(seed int64) []float64 {
	const n = 1 << 16
	base := make([]float64, n)
	rng := rand.New(rand.NewSource(20040613))
	periods, amps := [...]float64{3, 17, 61}, [...]float64{50, 20, 5}
	var phases [len(periods)]float64
	for k := range phases {
		phases[k] = 2 * math.Pi * rng.Float64()
	}
	for i := range base {
		x := 2 * math.Pi * float64(i) / n
		for k, p := range periods {
			base[i] += amps[k] * math.Sin(p*x+phases[k])
		}
		base[i] += 0.05 * rng.NormFloat64()
	}
	rng = rand.New(rand.NewSource(seed))
	start, sign, level := rng.Intn(n), 1.0, math.Round(200*rng.Float64()-100)
	if rng.Intn(2) == 1 {
		sign = -1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = level + sign*base[(i+start)&(n-1)]
	}
	return out
}

// BenchmarkSparsePair runs a tcp_sparse-shaped DKF pair in process — the
// linear model at dt 1, q = r = 0.05, δ 0.19, over the smooth block — in
// batches: the source's Process over a batch of readings, then the
// server's ApplyUpdate over the updates the batch sent. It reports the
// pair's ns per reading, the server's ns per applied update and the
// sends per reading.
func BenchmarkSparsePair(b *testing.B) {
	benchPair(b, Config{SourceID: "sparse", Model: model.Linear(1, 1, 0.05, 0.05), Delta: 0.19})
}

// BenchmarkDensePair is BenchmarkSparsePair at δ 1e-6, so every reading
// is sent and both sides settle each step on the covariance cycle: the
// constant and the linear model, with the same metrics.
func BenchmarkDensePair(b *testing.B) {
	for _, m := range []model.Model{model.Constant(1, 0.05, 0.05), model.Linear(1, 1, 0.05, 0.05)} {
		b.Run(m.Name, func(b *testing.B) {
			benchPair(b, Config{SourceID: "dense", Model: m, Delta: 1e-6})
		})
	}
}

func benchPair(b *testing.B, cfg Config) {
	block := sparseBlock(1)
	src, err := NewSourceNode(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServerNode(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 4096
	ups := make([]Update, 0, batch)
	vals := make([]float64, batch)
	r := stream.Reading{Values: make([]float64, 1)}
	var sourceTime, serverTime time.Duration
	sends := 0
	b.ResetTimer()
	for seq := 0; seq < b.N; {
		t0 := time.Now()
		ups = ups[:0]
		for end := min(seq+batch, b.N); seq < end; seq++ {
			r.Seq, r.Time, r.Values[0] = seq, float64(seq), block[seq&(len(block)-1)]
			u, _, err := src.Process(r)
			if err != nil {
				b.Fatal(err)
			}
			if u != nil {
				vals[len(ups)] = u.Values[0]
				ups = append(ups, *u)
				ups[len(ups)-1].Values = vals[len(ups)-1 : len(ups)]
			}
		}
		t1 := time.Now()
		for _, u := range ups {
			if err := srv.ApplyUpdate(u); err != nil {
				b.Fatal(err)
			}
		}
		sourceTime += t1.Sub(t0)
		serverTime += time.Since(t1)
		sends += len(ups)
	}
	b.StopTimer()
	b.ReportMetric(float64(sourceTime+serverTime)/float64(b.N), "ns/reading")
	if sends > 0 {
		b.ReportMetric(float64(serverTime)/float64(sends), "server-ns/update")
	}
	b.ReportMetric(float64(sends)/float64(b.N), "sends/reading")
}
