// Package gen produces the synthetic workloads used throughout the
// evaluation. It reproduces the paper's own synthetic moving-object
// generator (§5.1) exactly as described, and provides synthetic stand-ins
// for the two real datasets the paper used (zonal electric load and DEC
// HTTP traffic) that preserve the stream characteristics each experiment
// depends on — see DESIGN.md §3 for the substitution rationale.
//
// All generators are deterministic given their Seed, so experiments and
// benchmarks are reproducible run to run.
package gen

import (
	"math"
	"math/rand"

	"streamkf/internal/stream"
)

// MovingObjectConfig parameterizes the Example 1 trajectory generator.
type MovingObjectConfig struct {
	// N is the number of data points (paper: 4000).
	N int
	// DT is the sampling interval in seconds (paper: 100 ms).
	DT float64
	// MaxSpeed bounds the object speed in units/s (paper: 500).
	MaxSpeed float64
	// MinSegment and MaxSegment bound the number of samples the object
	// keeps a heading/speed before randomly changing it.
	MinSegment, MaxSegment int
	// NoiseStd is the standard deviation of measurement noise added to
	// the reported positions (the paper's Example 1 data is low-noise).
	NoiseStd float64
	// Seed makes the trajectory reproducible.
	Seed int64
}

// DefaultMovingObject returns the Example 1 configuration: 4000 points at
// 100 ms, piecewise-linear trajectories with random heading and speed
// changes. The paper caps speed at "500 units" without fixing the spatial
// unit; we pick the speed cap so that per-sample displacement (~1–3
// units) is commensurate with the paper's precision-width axis of 0.5–20,
// which is what reproduces its reported update percentages (Figure 4
// shows caching well below 100% at δ = 3, impossible if the object moved
// tens of units per sample).
func DefaultMovingObject() MovingObjectConfig {
	return MovingObjectConfig{
		N:          4000,
		DT:         0.1,
		MaxSpeed:   30,
		MinSegment: 20,
		MaxSegment: 200,
		NoiseStd:   0.1,
		Seed:       1,
	}
}

// MovingObject generates a two-attribute (X, Y) piecewise-linear
// trajectory: "the object could randomly change its speed and heading,
// and then continues on that linear path for a randomly generated length
// of time" (§5.1).
func MovingObject(cfg MovingObjectConfig) []stream.Reading {
	if cfg.N <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]stream.Reading, cfg.N)
	x, y := 0.0, 0.0
	speed := rng.Float64() * cfg.MaxSpeed
	angle := rng.Float64() * 2 * math.Pi
	remaining := segmentLen(rng, cfg)
	for k := 0; k < cfg.N; k++ {
		if remaining == 0 {
			speed = rng.Float64() * cfg.MaxSpeed
			angle = rng.Float64() * 2 * math.Pi
			remaining = segmentLen(rng, cfg)
		}
		x += speed * math.Cos(angle) * cfg.DT
		y += speed * math.Sin(angle) * cfg.DT
		remaining--
		out[k] = stream.Reading{
			Seq:  k,
			Time: float64(k) * cfg.DT,
			Values: []float64{
				x + cfg.NoiseStd*rng.NormFloat64(),
				y + cfg.NoiseStd*rng.NormFloat64(),
			},
		}
	}
	return out
}

func segmentLen(rng *rand.Rand, cfg MovingObjectConfig) int {
	lo, hi := cfg.MinSegment, cfg.MaxSegment
	if lo <= 0 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// PowerLoadConfig parameterizes the Example 2 substitute dataset.
type PowerLoadConfig struct {
	// N is the number of hourly samples (paper: 5831, about one month
	// of hourly readings plus change).
	N int
	// Base is the mean zonal load.
	Base float64
	// DailyAmp is the amplitude of the 24-hour sinusoidal component.
	DailyAmp float64
	// WeekendFactor scales the daily amplitude on weekends, modelling
	// lower business load.
	WeekendFactor float64
	// NoiseStd is the measurement noise standard deviation.
	NoiseStd float64
	// Seed makes the series reproducible.
	Seed int64
}

// DefaultPowerLoad returns a configuration shaped like the paper's
// Figure 6: a strong diurnal sinusoid (peak in working hours, trough at
// night) with mild noise, 5831 hourly points.
func DefaultPowerLoad() PowerLoadConfig {
	return PowerLoadConfig{
		N:             5831,
		Base:          1750,
		DailyAmp:      400,
		WeekendFactor: 0.7,
		NoiseStd:      25,
		Seed:          2,
	}
}

// PowerLoad generates an hourly zonal electric load series with a
// sinusoidal daily cycle: x_k ≈ Base + A·sin(ωk + θ) with ω = 2π/24, a
// weekend amplitude dip, and white measurement noise.
func PowerLoad(cfg PowerLoadConfig) []stream.Reading {
	if cfg.N <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]stream.Reading, cfg.N)
	omega := 2 * math.Pi / 24
	// Phase chosen so the daily peak lands mid-afternoon.
	theta := -omega * 9
	for k := 0; k < cfg.N; k++ {
		amp := cfg.DailyAmp
		day := (k / 24) % 7
		if day >= 5 { // weekend
			amp *= cfg.WeekendFactor
		}
		v := cfg.Base + amp*math.Sin(omega*float64(k)+theta) + cfg.NoiseStd*rng.NormFloat64()
		out[k] = stream.Reading{Seq: k, Time: float64(k) * 3600, Values: []float64{v}}
	}
	return out
}

// HTTPTrafficConfig parameterizes the Example 3 substitute dataset.
type HTTPTrafficConfig struct {
	// N is the number of samples (counts per 10-timestamp bucket).
	N int
	// BaseRate is the mean packet count per bucket.
	BaseRate float64
	// NoiseStd is the white noise standard deviation, the dominant
	// component ("the data is extremely noisy revealing no
	// visually-identifiable trend", §4.3).
	NoiseStd float64
	// BurstProb is the per-sample probability of starting a burst.
	BurstProb float64
	// BurstAmp is the mean burst amplitude; bursts decay geometrically.
	BurstAmp float64
	// Seed makes the series reproducible.
	Seed int64
}

// DefaultHTTPTraffic returns a configuration shaped like the paper's
// Figure 9: a noise-dominated count series with occasional spikes.
func DefaultHTTPTraffic() HTTPTrafficConfig {
	return HTTPTrafficConfig{
		N:         5000,
		BaseRate:  120,
		NoiseStd:  35,
		BurstProb: 0.01,
		BurstAmp:  250,
		Seed:      3,
	}
}

// HTTPTraffic generates a noisy HTTP packet-count series: white noise
// around a base rate with geometrically decaying bursts, clipped at zero
// (packet counts cannot be negative).
func HTTPTraffic(cfg HTTPTrafficConfig) []stream.Reading {
	if cfg.N <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]stream.Reading, cfg.N)
	burst := 0.0
	for k := 0; k < cfg.N; k++ {
		if rng.Float64() < cfg.BurstProb {
			burst += cfg.BurstAmp * (0.5 + rng.Float64())
		}
		burst *= 0.85
		v := cfg.BaseRate + burst + cfg.NoiseStd*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		out[k] = stream.Reading{Seq: k, Time: float64(k) * 10, Values: []float64{v}}
	}
	return out
}

// Ramp generates v_k = start + slope*k with optional Gaussian noise.
func Ramp(n int, start, slope, noiseStd float64, seed int64) []stream.Reading {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for k := range vals {
		vals[k] = start + slope*float64(k) + noiseStd*rng.NormFloat64()
	}
	return stream.FromValues(vals, 1)
}

// RandomWalk generates v_k = v_{k-1} + N(0, stepStd).
func RandomWalk(n int, start, stepStd float64, seed int64) []stream.Reading {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	v := start
	for k := range vals {
		v += stepStd * rng.NormFloat64()
		vals[k] = v
	}
	return stream.FromValues(vals, 1)
}
