package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"streamkf/internal/model"
	"streamkf/internal/stream"
)

// goldenTrace is a fixed smooth 65,536-reading signal: three whole-period
// sinusoids plus small deterministic noise, so it joins up end to start
// like the benchmark's input block.
func goldenTrace() []float64 {
	const n = 1 << 16
	out := make([]float64, n)
	lcg := uint64(20040613)
	for i := range out {
		t := 2 * math.Pi * float64(i) / n
		lcg = lcg*6364136223846793005 + 1442695040888963407
		noise := float64(int64(lcg>>11))/float64(1<<52) - 1 // [-1, 1)
		out[i] = 40*math.Sin(3*t) + 9*math.Sin(41*t+1) + 2*math.Sin(977*t+2) + 0.05*noise
	}
	return out
}

// TestGoldenSuppressionTrace replays the trace through a SourceNode and a
// ServerNode and pins what the wire and the query client would see: how
// many readings were transmitted, an FNV-1a hash of their sequence
// numbers, and a hash of the server's answer (every bit of it) after
// every reading. The golden values were generated at commit d12ff30, the
// last one whose filter ran on matrix objects; they change only if a
// suppression decision or an answer changes in any bit. The answer hashes
// of linear, constant and linear-smoothed-gated were re-recorded when
// their covariance steps over a gap of two or more became owed and
// settled in closed form (kalman/owed.go); their update counts and seq
// hashes did not move. Unlike the
// kalman package's reference tests this shares no code with what it
// checks, the general shapes' loops in internal/mat included.
func TestGoldenSuppressionTrace(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		updates    int
		seqHash    uint64
		answerHash uint64
	}{
		{"linear", Config{Model: model.Linear(1, 1, 0.05, 0.05), Delta: 0.19}, 12257, 0x182da0f8fa8ec623, 0x959e9dc35682ba9e},
		{"constant", Config{Model: model.Constant(1, 0.05, 0.05), Delta: 0.19}, 41692, 0x16e35e6df9b90d8, 0x38ff30589f77dfd1},
		{"linear-smoothed-gated", Config{Model: model.Linear(1, 1, 0.05, 0.05), Delta: 0.19, F: 0.5, OutlierNIS: 25}, 12324, 0x99b4c61afcd35c1f, 0xecb32cfca6e2ce7a},
		// Two axes (the second a third of a period behind): the 4x2 shape
		// runs the filter's general loops, not the unrolled small ones.
		{"linear2d", Config{Model: model.Linear(2, 0.1, 0.05, 0.05), Delta: 0.19}, 44445, 0x6544f84853d1fde8, 0x682d1adf4f9ff193},
		{"acceleration", Config{Model: model.Acceleration(1, 0.1, 0.05, 0.05), Delta: 0.19}, 26049, 0x89ec95adae7f8973, 0xfd8f7fc5f761bdca},
	}
	trace := goldenTrace()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.SourceID = "golden"
			src, err := NewSourceNode(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServerNode(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			seqs, answers := fnv.New64a(), fnv.New64a()
			var word [8]byte
			updates := 0
			r := stream.Reading{Values: make([]float64, tc.cfg.Model.MeasDim)}
			for seq := range trace {
				r.Seq, r.Time = seq, float64(seq)
				for axis := range r.Values {
					r.Values[axis] = trace[(seq+axis*len(trace)/3)%len(trace)]
				}
				u, _, err := src.Process(r)
				if err != nil {
					t.Fatalf("seq %d: Process: %v", seq, err)
				}
				if u != nil {
					updates++
					binary.LittleEndian.PutUint64(word[:], uint64(u.Seq))
					seqs.Write(word[:])
					if err := srv.ApplyUpdate(*u); err != nil {
						t.Fatalf("seq %d: ApplyUpdate: %v", seq, err)
					}
				} else {
					srv.AdvanceTo(seq)
				}
				est, ok := srv.Estimate()
				if !ok {
					t.Fatalf("seq %d: server has no estimate", seq)
				}
				for _, v := range est {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
					answers.Write(word[:])
				}
			}
			if updates != tc.updates || seqs.Sum64() != tc.seqHash || answers.Sum64() != tc.answerHash {
				t.Fatalf("trajectory changed: updates %d, seq hash %#x, answer hash %#x; golden %d, %#x, %#x",
					updates, seqs.Sum64(), answers.Sum64(), tc.updates, tc.seqHash, tc.answerHash)
			}
		})
	}
}
