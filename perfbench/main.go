// Command perfbench is the repository's benchmark: one workload per
// run, driven through the public entry points (gqr.Index and the HTTP
// handler gqr-server serves), with its answers checked. See README.md
// for the workloads and the metric map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload search-d128 --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in turn, each reported as below.
//
// Human-readable lines come first; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. The exit code is nonzero when an output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer are the metrics the final JSON line carries;
// BENCHMARK.json lists the same names (a test keeps them in step).
// Every other metric is printed in the human-readable lines only: it
// applies to one workload (batch and write latency, failed_frac), its
// spread over ten consecutive runs exceeded any bound a gate may use
// on a host whose speed drifts (search latency on mixed-rw; see
// README.md), or it is a time that is structurally zero on some
// workload (rerank and merge time), which a gate would read as
// unmeasured.
var (
	endToEnd = []string{"setup_s", "qps", "recall_at_10", "heap_mb"}
	perLayer = []string{
		"server.self_us", "server.batch_self_us", "server.allocs_per_req", "net.overhead_us",
		"gqr.snapshot_us", "gqr.snapshot_p99_us", "gqr.method_rebuilds_per_kq", "gqr.allocs_per_query",
		"query.sequence_us", "query.probe_us", "query.finalize_us",
		"query.buckets_generated", "query.buckets_probed", "query.candidates",
		"query.probe_yield", "query.budget_overshoot",
		"index.gather_us", "index.filtered", "index.seals", "index.merges", "index.segments", "index.freeze_s",
		"vecmath.evaluate_us", "vecmath.abandon_ratio",
		"quantization.adc_scored", "quantization.reranked", "quantization.train_s",
		"hash.train_s", "hash.code_s",
		"wal.wchar_per_user_byte", "wal.disk_bytes_per_user_byte",
		"runtime.gc_cycles_per_kq", "trace.overhead_us",
		"driver.late_p50_us", "driver.late_p99_us",
	}
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run measured and checked.
type result struct {
	attempted, failed int
	problems          []string // failed output checks
	e2e, layer        map[string]metric
	notes             []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// problem records a failed output check.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *result) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// runConfig is the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	cacheDir string
}

// window is how long one run measures.
func (c runConfig) window() time.Duration { return time.Duration(c.seconds) * time.Second }

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all to run each in turn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "seconds of measured load")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.cacheDir, "cache-dir", ".bench_build/perfbench", "directory for the ground-truth cache, data directories and trace files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	}
	if workloads[names[0]] == nil || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s, or all), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	ok := true
	for _, name := range names {
		cfg.workload = name
		ok = runOne(cfg) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs and reports one workload and says whether it completed
// with every output check passed.
func runOne(cfg runConfig) bool {
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return false
	}
	return report(os.Stdout, cfg, res)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable lines and the final JSON line, and
// says whether every output check passed.
func report(w *os.File, cfg runConfig, res *result) bool {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	printSet := func(kind string, m map[string]metric) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-6s %-30s %14.4f %s\n", kind, n, m[n].Value, m[n].Unit)
		}
	}
	printSet("e2e", res.e2e)
	printSet("layer", res.layer)
	for _, n := range res.notes {
		fmt.Fprintf(w, "note   %s\n", n)
	}
	fmt.Fprintf(w, "ops    attempted=%d failed=%d failed_frac=%.6f\n", res.attempted, res.failed, failedFrac(res.failed, res.attempted))
	const maxShown = 20
	for i, p := range res.problems {
		if i == maxShown {
			fmt.Fprintf(w, "check  ... %d more failed checks\n", len(res.problems)-maxShown)
			break
		}
		fmt.Fprintf(w, "check  FAILED: %s\n", p)
	}
	names, src := endToEnd, res.e2e
	if cfg.trace {
		names, src = perLayer, res.layer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, map[string]metric{}}
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			out.Correct = false
			fmt.Fprintf(w, "check  FAILED: metric %s was not measured\n", n)
			continue
		}
		out.Metrics[n] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return false
	}
	fmt.Fprintln(w, string(b))
	return out.Correct
}
