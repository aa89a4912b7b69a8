package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSliceSource(t *testing.T) {
	data := FromValues([]float64{10, 20, 30}, 0.1)
	s := NewSliceSource(data)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	var got []float64
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, r.Values[0])
	}
	if len(got) != 3 || got[2] != 30 {
		t.Fatalf("drained = %v", got)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next after exhaustion returned ok")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r.Values[0] != 10 {
		t.Fatalf("after Reset got %v %v", r, ok)
	}
}

func TestFromValuesSeqAndTime(t *testing.T) {
	data := FromValues([]float64{5, 6}, 0.25)
	if data[1].Seq != 1 || math.Abs(data[1].Time-0.25) > 1e-12 {
		t.Fatalf("FromValues[1] = %+v", data[1])
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	src := FuncSource(func() (Reading, bool) {
		if n >= 2 {
			return Reading{}, false
		}
		n++
		return Reading{Seq: n}, true
	})
	got := Collect(src)
	if len(got) != 2 || got[1].Seq != 2 {
		t.Fatalf("Collect = %v", got)
	}
}

func TestChanSource(t *testing.T) {
	ch := make(chan Reading, 2)
	ch <- Reading{Seq: 0, Values: []float64{1}}
	ch <- Reading{Seq: 1, Values: []float64{2}}
	close(ch)
	got := Collect(ChanSource(ch))
	if len(got) != 2 || got[1].Values[0] != 2 {
		t.Fatalf("ChanSource collect = %v", got)
	}
}

func TestValuesColumn(t *testing.T) {
	data := []Reading{
		{Values: []float64{1, 10}},
		{Values: []float64{2, 20}},
	}
	col := Values(data, 1)
	if col[0] != 10 || col[1] != 20 {
		t.Fatalf("Values = %v", col)
	}
}

func TestQueryValidate(t *testing.T) {
	good := Query{ID: "q1", SourceID: "s1", Delta: 3}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := []Query{
		{SourceID: "s1", Delta: 1},
		{ID: "q", Delta: 1},
		{ID: "q", SourceID: "s", Delta: 0},
		{ID: "q", SourceID: "s", Delta: -1},
		{ID: "q", SourceID: "s", Delta: 1, F: -1},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid query accepted: %+v", i, q)
		}
	}
}

func TestWithinPrecision(t *testing.T) {
	if !WithinPrecision([]float64{1, 2}, []float64{1.5, 2.5}, 0.5) {
		t.Fatal("boundary case |d| == delta must be within")
	}
	if WithinPrecision([]float64{1, 2}, []float64{1, 2.51}, 0.5) {
		t.Fatal("one dimension out of bound must fail")
	}
}

func TestWithinPrecisionDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	WithinPrecision([]float64{1}, []float64{1, 2}, 1)
}

func TestAbsErrorSum(t *testing.T) {
	if got := AbsErrorSum([]float64{1, -2}, []float64{3, 2}); got != 6 {
		t.Fatalf("AbsErrorSum = %v, want 6", got)
	}
}

// Property: WithinPrecision(a, b, δ) is symmetric in a and b, and implied
// by any δ' >= δ.
func TestWithinPrecisionMonotoneProperty(t *testing.T) {
	f := func(a, b [3]float64, d1, d2 float64) bool {
		da, db := math.Abs(d1), math.Abs(d1)+math.Abs(d2)
		as, bs := a[:], b[:]
		if WithinPrecision(as, bs, da) != WithinPrecision(bs, as, da) {
			return false
		}
		// Larger delta can only widen acceptance.
		if WithinPrecision(as, bs, da) && !WithinPrecision(as, bs, db) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
