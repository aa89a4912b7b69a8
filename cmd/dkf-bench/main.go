// Command dkf-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	dkf-bench                      # run every experiment, print tables
//	dkf-bench -experiment fig4     # run one experiment
//	dkf-bench -list                # list experiment ids and captions
//	dkf-bench -experiment fig4 -csv out.csv   # also export sweep as CSV
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"streamkf/internal/experiments"
	"streamkf/internal/metrics"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id to run (default: all)")
		list       = flag.Bool("list", false, "list available experiments and exit")
		csvPath    = flag.String("csv", "", "write sweep results as CSV to this file (single experiment only)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n         expected: %s\n", e.ID, e.Title, e.Expected)
		}
		return
	}

	if *experiment != "" {
		e, ok := experiments.Get(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "dkf-bench: unknown experiment %q; use -list\n", *experiment)
			os.Exit(2)
		}
		if err := runOne(os.Stdout, e, *csvPath); err != nil {
			fmt.Fprintf(os.Stderr, "dkf-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *csvPath != "" {
		fmt.Fprintln(os.Stderr, "dkf-bench: -csv requires -experiment")
		os.Exit(2)
	}
	for _, e := range experiments.All() {
		if err := runOne(os.Stdout, e, ""); err != nil {
			fmt.Fprintf(os.Stderr, "dkf-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func runOne(w io.Writer, e experiments.Experiment, csvPath string) error {
	r, err := e.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%sexpected shape: %s\n", r.Table(), e.Expected)
	if csvPath == "" {
		return nil
	}
	sw, ok := r.(*metrics.Sweep)
	if !ok {
		return fmt.Errorf("experiment %s is not a sweep; cannot export CSV", e.ID)
	}
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sw.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
