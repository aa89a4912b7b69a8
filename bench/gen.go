package main

import (
	"math"
	"math/rand"
)

// blockLen is the length of the cyclic input block. Readings beyond the
// block replay it with increasing Seq, so a run never holds more than
// this many values however long it measures.
const (
	blockLen  = 1 << 16
	blockMask = blockLen - 1
)

type signalKind int

const (
	// smooth is a sum of whole-period sinusoids plus small noise: a
	// linear model predicts it well, so most readings are suppressed.
	smooth signalKind = iota
	// walk is a random walk whose increments sum to zero over the block:
	// every reading misses any small δ.
	walk
)

// smoothNoise is the standard deviation of the noise on the smooth
// signal; tcp_sparse's δ is frozen against it.
const smoothNoise = 0.05

// genBlock returns the kind's block for seed; the same seed gives the
// same block bit for bit.
//
// A walk's steps come from the seed. A smooth block is one fixed block
// that the seed rotates, mirrors and shifts to a level of its own:
// other readings, the same work. A Kalman filter is linear and the δ
// test symmetric, so which readings miss δ does not change, and the
// update ratio and the bytes on the wire can carry a tight bound across
// seeds. Seeding the noise itself was tried: the ratio then moves by a
// tenth from seed to seed (misses come in runs, so 65,536 readings do
// not average them out), and a bound that wide would gate nothing.
func genBlock(seed int64, kind signalKind) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, blockLen)
	switch kind {
	case smooth:
		base := smoothBase()
		start, sign, level := rng.Intn(blockLen), 1.0, math.Round(200*rng.Float64()-100)
		if rng.Intn(2) == 1 {
			sign = -1
		}
		for i := range b {
			b[i] = level + sign*base[(i+start)&blockMask]
		}
	case walk:
		// The increments sum to zero, so the step from the block's last
		// value back to its first is an ordinary step.
		inc := make([]float64, blockLen)
		mean := 0.0
		for i := range inc {
			inc[i] = rng.NormFloat64()
			mean += inc[i] / blockLen
		}
		for i := 1; i < blockLen; i++ {
			b[i] = b[i-1] + inc[i] - mean
		}
	}
	return b
}

// smoothBase is whole-period sinusoids plus noise from a fixed seed, so
// its end joins its start.
func smoothBase() []float64 {
	rng := rand.New(rand.NewSource(20040613))
	periods := [...]float64{3, 17, 61}
	amps := [...]float64{50, 20, 5}
	var phases [len(periods)]float64
	for k := range phases {
		phases[k] = 2 * math.Pi * rng.Float64()
	}
	b := make([]float64, blockLen)
	for i := range b {
		x := 2 * math.Pi * float64(i) / blockLen
		for k, p := range periods {
			b[i] += amps[k] * math.Sin(p*x+phases[k])
		}
		b[i] += smoothNoise * rng.NormFloat64()
	}
	return b
}
