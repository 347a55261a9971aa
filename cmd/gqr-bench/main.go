// Command gqr-bench regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	gqr-bench -experiment fig7                 # one experiment
//	gqr-bench -experiment all -scale 0.25      # everything, quarter-size corpora
//	gqr-bench -list                            # list experiment ids
//
// Corpus sizes scale linearly with -scale; -nq and -k control the query
// workload (paper defaults: 1000 queries scaled to 100, k=20).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gqr/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (e.g. fig7), comma-separated list, or 'all'")
		list       = flag.Bool("list", false, "list available experiments and exit")
		scale      = flag.Float64("scale", 1.0, "corpus scale factor in (0,1]")
		nq         = flag.Int("nq", 100, "number of sampled queries")
		k          = flag.Int("k", 20, "number of target nearest neighbors")
		seed       = flag.Int64("seed", 0, "training seed offset")
		out        = flag.String("o", "", "write output to this file instead of stdout")
		buildProcs = flag.Int("build-procs", 0, "index-build worker bound (0 = GOMAXPROCS); indexes are identical at any setting")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "gqr-bench: -experiment is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	opt := bench.RunOptions{Scale: *scale, NQ: *nq, K: *k, Seed: *seed, BuildProcs: *buildProcs}
	var exps []bench.Experiment
	if *experiment == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Fprintf(w, "\n===== %s: %s =====\n\n", e.ID, e.Title)
		if err := e.Run(opt, w); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Fprintf(w, "[%s completed in %s]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gqr-bench:", err)
	os.Exit(1)
}
