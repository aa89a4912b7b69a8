package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"streamkf/internal/experiments"
	"streamkf/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the goldens in testdata with this build's output")

// TestGolden renders every experiment as dkf-bench with no flags prints
// them and compares the bytes with testdata/golden.txt; beside it, every
// sweep's points in shortest round-trip form (strconv 'g', -1), which the
// tables round to three decimals, against testdata/sweeps.txt. A figure
// that moves fails here, a sweep's down to its last bit. After a change
// that is meant to move one, run `go test ./cmd/dkf-bench/ -update` and
// review the goldens' diff.
func TestGolden(t *testing.T) {
	var out, sweeps bytes.Buffer
	for _, e := range experiments.All() {
		if err := runOne(&out, e, ""); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintln(&out)
		r, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if sw, ok := r.(*metrics.Sweep); ok {
			for i, p := range sw.Params {
				fmt.Fprintf(&sweeps, "%s %s", e.ID, strconv.FormatFloat(p, 'g', -1, 64))
				for _, name := range sw.SeriesNames() {
					fmt.Fprintf(&sweeps, " %s=%s", name, strconv.FormatFloat(sw.Series[name][i], 'g', -1, 64))
				}
				fmt.Fprintln(&sweeps)
			}
		}
	}
	compareGolden(t, "golden.txt", out.Bytes())
	compareGolden(t, "sweeps.txt", sweeps.Bytes())
}

// compareGolden fails t at the first line where got differs from the
// golden testdata/name, which -update rewrites first.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; ; i++ {
		if i >= len(gl) || i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("output differs from %s at line %d:\n got  %q\n want %q\n(%d lines, want %d; -update rewrites the golden)", path, i+1, g, w, len(gl), len(wl))
		}
	}
}
