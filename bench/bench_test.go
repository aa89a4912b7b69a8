package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.25, 20}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	// The median over slices: one slow slice must not move it.
	if got := median([]float64{3, 1, 2, 100}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Ten windows of ten latencies, all 1 except in the third window,
	// where they are 50: the slow window must not move the result.
	var windows [][]float64
	for w := 0; w < 10; w++ {
		v := 1.0
		if w == 2 {
			v = 50
		}
		win := make([]float64, 10)
		for i := range win {
			win[i] = v
		}
		windows = append(windows, win)
	}
	windows = append(windows, nil) // a window in which nothing succeeded
	if got := windowedPercentile(windows, 0.9); got != 1 {
		t.Errorf("windowedPercentile = %v, want 1", got)
	}
}

func TestSamples(t *testing.T) {
	// A time taken at half the calm speed reads half as long at the calm
	// speed, a rate twice as high; samples from a machine below minSpeed at
	// either end are left out as soon as minUsable others exist.
	var s samples
	slow := bracket{minSpeed / 2, 1}
	s.add(10, bracket{0.5, 0.5})
	s.add(99, slow)
	if got := s.times(); len(got) != 2 || got[0] != 5 {
		t.Errorf("times = %v, want [5 …]: too few usable samples to leave any out", got)
	}
	s.add(10, bracket{0.4, 0.6})
	s.add(10, bracket{1, 1})
	if got, want := s.times(), []float64{5, 5, 10}; !equal(got, want) {
		t.Errorf("times = %v, want %v", got, want)
	}
	if got, want := s.rates(), []float64{20, 20, 10}; !equal(got, want) {
		t.Errorf("rates = %v, want %v", got, want)
	}
	if got, want := s.raw(), []float64{10, 10, 10}; !equal(got, want) {
		t.Errorf("raw = %v, want %v", got, want)
	}
	if got := s.speed(); got != 0.5 {
		t.Errorf("speed = %v, want 0.5", got)
	}
	if s.usable() != 3 {
		t.Errorf("usable = %d, want 3", s.usable())
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestReference(t *testing.T) {
	r := newReference(0.01)
	if b := r.endSample(); b.before <= 0 || b.after <= 0 {
		t.Errorf("the reference measured speeds %v", b)
	}
	var none *reference
	if b := none.endSample(); !b.usable() {
		t.Errorf("no reference, and the sample is not usable: %v", b)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, kind := range []signalKind{smooth, walk} {
		a, b := genBlock(7, kind), genBlock(7, kind)
		if len(a) != blockLen {
			t.Fatalf("block has %d values, want %d", len(a), blockLen)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("kind %d: same seed, different value at %d", kind, i)
			}
		}
		c := genBlock(8, kind)
		same := true
		for i := range a {
			same = same && a[i] == c[i]
		}
		if same {
			t.Errorf("kind %d: seeds 7 and 8 give the same block", kind)
		}
		// The wrap-around step is no larger than the largest step inside.
		maxStep := 0.0
		for i := 1; i < blockLen; i++ {
			maxStep = math.Max(maxStep, math.Abs(a[i]-a[i-1]))
		}
		if wrap := math.Abs(a[0] - a[blockLen-1]); wrap > maxStep {
			t.Errorf("kind %d: block end does not join its start: step %v, largest inside %v", kind, wrap, maxStep)
		}
	}
}

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload and its traced pass at a hundredth of
// the full length and checks that each metric BENCHMARK.json names is
// printed once, finite and with the declared unit, and nothing failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, cw := range c.Workloads {
		w, ok := findWorkload(cw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", cw.Name)
		}
		o := options{seed: 3, seconds: 0.12, trace: true, out: filepath.Join(tmp, "spans")}
		rep, err := runWorkload(w, o, func(string) {})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if (rep.failed != 0 && !raceBuild) || rep.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, rep.failed, rep.attempted)
		}
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := printReport(&out, rep, traced); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result has %d metrics, BENCHMARK.json %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s: got %+v (present %v), want unit %q", w.name, m.Name, got, ok, m.Unit)
				}
				printed := 0
				for _, line := range lines[:len(lines)-1] {
					if strings.HasPrefix(line, w.name+" "+m.Name+" ") {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s: metric %s printed %d times", w.name, m.Name, printed)
				}
			}
		}
		for _, m := range rep.endToEnd {
			if m.value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be above 0", w.name, m.name, m.value)
			}
		}
		if _, err := os.Stat(filepath.Join(o.out, w.name+".spans.csv")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.Name() != "spans" {
			t.Errorf("left behind in the temporary directory: %s", e.Name())
		}
	}
}
