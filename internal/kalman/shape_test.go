package kalman

import (
	"strconv"
	"testing"
	"unsafe"

	"streamkf/internal/mat"
)

// generalConfig is a 4-state, 2-measurement filter: the shape of the
// catalogue's linear2d, on the general kernel throughout.
func generalConfig() Config {
	return Config{
		Phi: Static(mat.FromRows([][]float64{{1, 0.1, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0.1}, {0, 0, 0, 1}})),
		H:   mat.FromRows([][]float64{{1, 0, 0, 0}, {0, 0, 1, 0}}),
		Q:   mat.ScaledIdentity(4, 0.05),
		R:   mat.ScaledIdentity(2, 0.05),
		X0:  mat.Vec(1, 0, -1, 0),
	}
}

// TestShapeSegments pins which segments a shape's block has: the fused
// kernels' shapes carry no general-kernel scratch, every other shape —
// Joseph form included — carries all of it, and the Gauss-Jordan scratch
// exists only above the closed-form inverses. The fused shapes' segments
// sit where CorrectValues' fixed-size kernel reads them.
func TestShapeSegments(t *testing.T) {
	scratch := []int{segXs, segT1, segT2, segT3, segNM, segHP}
	for _, tc := range []struct {
		name           string
		n, m           int
		joseph         bool
		fused          bool
		blockLen, segW int
	}{
		{"constant", 1, 1, false, true, 12, 0},
		{"linear", 2, 1, false, true, 22, 0},
		{"linear-joseph", 2, 1, true, false, 22 + 2 + 3*4 + 2 + 2, 0},
		{"meas2", 2, 2, false, false, 2 + 4 + 4 + 4 + 4 + 4 + 4 + 2 + 4 + 4 + 2 + 3*4 + 4 + 4 + 2 + 2, 0},
		{"linear2d", 4, 2, false, false, 4 + 16 + 16 + 8 + 8 + 4 + 8 + 2 + 4 + 4 + 4 + 3*16 + 8 + 8 + 2 + 2, 0},
		{"meas3", 3, 3, false, false, 3 + 9 + 9 + 9 + 9 + 9 + 9 + 3 + 9 + 9 + 3 + 3*9 + 9 + 9 + 3 + 3 + 9, 9},
	} {
		sh := shapeFor(tc.n, tc.m, tc.joseph)
		if sh != shapeFor(tc.n, tc.m, tc.joseph) {
			t.Errorf("%s: shape is not interned", tc.name)
		}
		if got := BlockLen(tc.n, tc.m, tc.joseph); got != tc.blockLen {
			t.Errorf("%s: block holds %d floats, want %d", tc.name, got, tc.blockLen)
		}
		for _, seg := range scratch {
			if got := int(sh.off[seg+1] - sh.off[seg]); (got == 0) != tc.fused {
				t.Errorf("%s: scratch segment %d holds %d floats; fused kernel: %v", tc.name, seg, got, tc.fused)
			}
		}
		if got := int(sh.off[segW+1] - sh.off[segW]); got != tc.segW {
			t.Errorf("%s: Gauss-Jordan scratch holds %d floats, want %d", tc.name, got, tc.segW)
		}
		if sh.off[segX] != 0 || int(sh.off[segP]) != tc.n || int(sh.off[segQ]) != tc.n+tc.n*tc.n {
			t.Errorf("%s: x | P do not lead the block", tc.name)
		}
		if tc.fused {
			want := [...][7]int32{{u1H, u1R, u1Gain, u1Innov, u1S, u1SInv, u1Len}, {u2H, u2R, u2Gain, u2Innov, u2S, u2SInv, u2Len}}[tc.n-1]
			got := [7]int32{sh.off[segH], sh.off[segR], sh.off[segGain], sh.off[segInnov], sh.off[segS], sh.off[segSInv], sh.off[segSInv+1]}
			if got != want {
				t.Errorf("%s: H, R, K, innovation, S, S⁻¹ and the kernel's length at %v, the kernel reads %v", tc.name, got, want)
			}
		}
	}
	want := uintptr(64) // 40 with a 32-bit build's 4-byte words
	if strconv.IntSize == 32 {
		want = 40
	}
	if n := unsafe.Sizeof(Filter{}); n != want {
		t.Errorf("Filter header is %d bytes, want %d", n, want)
	}
}

// TestInitInPlace builds filters of every kernel path in place over blocks
// the test owns, with spare floats behind them, and requires the exact
// trajectory of New's filter — and of the mat-API reference — with the
// spare never touched, nothing allocated, and a second Init over the same
// block starting over.
func TestInitInPlace(t *testing.T) {
	cfgs := equivalenceConfigs()
	cfgs["general-4x2"] = generalConfig()
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			n, m := cfg.X0.Rows(), cfg.H.Rows()
			need := BlockLen(n, m, cfg.JosephForm)
			block := make([]float64, need+5)
			for i := range block {
				block[i] = 777 // whatever the block held before
			}
			var f Filter
			if allocs := testing.AllocsPerRun(10, func() {
				if err := f.Init(block, cfg); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("Init allocates %v, want 0", allocs)
			}
			if &f.Block()[0] != &block[0] || len(f.Spare()) != 5 {
				t.Fatalf("filter is over %d floats with %d spare, want the caller's %d and 5", len(f.Block()), len(f.Spare()), len(block))
			}
			run := func(f *Filter, ref *refFilter) {
				gen := traceLCG(4242)
				for step := 0; step < 200; step++ {
					f.Predict()
					ref.Predict()
					zv := make([]float64, m)
					for i := range zv {
						zv[i] = 0.05*float64(step) + gen.next()
					}
					z := mat.Vec(zv...)
					if got, err := f.NIS(z); err != nil || got != ref.NIS(z) {
						t.Fatalf("step %d: NIS = %v (%v), reference %v", step, got, err, ref.NIS(z))
					}
					if step%3 != 0 {
						if err := f.Correct(z); err != nil {
							t.Fatal(err)
						}
						ref.Correct(z)
					}
					if !mat.Equal(f.State(), ref.x) || !mat.Equal(f.Cov(), ref.p) {
						t.Fatalf("step %d: in-place filter left the reference", step)
					}
				}
			}
			run(&f, newRefFilter(cfg))
			heap := MustNew(cfg)
			run(heap, newRefFilter(cfg))
			if !StateEqual(&f, heap) {
				t.Error("in-place and heap filters ended apart")
			}
			for i, v := range f.Spare() {
				if v != 777 {
					t.Fatalf("spare float %d was written: %v", i, v)
				}
			}
			// The state is taken from the head of the block when X0 is nil.
			again := cfg
			again.X0 = nil
			copy(block, cfg.X0.RawData())
			if err := f.Init(block, again); err != nil {
				t.Fatal(err)
			}
			if f.K() != 0 || f.Gain() != nil || !StateEqual(&f, MustNew(cfg)) {
				t.Error("a second Init over the same block did not start over")
			}
			f.Predict()
			if err := f.Init(block[:need-1], cfg); err == nil {
				t.Error("Init over a block one float short succeeded")
			}
			if f.K() != 1 || len(f.Block()) != len(block) {
				t.Error("a refused Init changed the filter")
			}
		})
	}
}
