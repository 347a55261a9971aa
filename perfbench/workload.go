package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gqr"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(runConfig) (*result, error){
	"search-d128": func(c runConfig) (*result, error) { return runDirect(c, searchD128) },
	"rerank-d128": func(c runConfig) (*result, error) { return runDirect(c, rerankD128) },
	"http-d32":    runHTTP,
	"mixed-rw":    runMixed,
}

// shape is one workload's corpus and query configuration.
type shape struct {
	name   string
	n, dim int
	budget int  // WithMaxCandidates
	rerank bool // WithReranking(16, 64, 8)
	setups int  // set-ups per untraced run; setup_s is their median
	// pool is the number of distinct queries; recall is their mean, so
	// more of them steady recall_at_10. search-d128 keeps 512: its
	// queries take milliseconds each, and so does their ground truth.
	pool int
}

var (
	// searchD128 is larger than the shared L3: exact evaluation is
	// memory-bound and dominates. Its build takes seconds, so it is set
	// up three times per run rather than five.
	searchD128 = shape{name: "search-d128", n: 200000, dim: 128, budget: 1000, setups: 3, pool: 512}
	// rerankD128 fits in cache and re-ranks, so ADC scoring dominates.
	// PQ training takes seconds, hence three set-ups.
	rerankD128 = shape{name: "rerank-d128", n: 20000, dim: 128, budget: 1000, rerank: true, setups: 3, pool: 1024}
	// httpD32 makes the library cheap so the HTTP layer dominates.
	httpD32 = shape{name: "http-d32", n: 20000, dim: 32, budget: 200, setups: 5, pool: 1024}
	// mixedRW writes beside reads over HTTP with the WAL on.
	mixedRW = shape{name: "mixed-rw", n: 20000, dim: 64, budget: 1000, setups: 5, pool: 1024}
)

// rounds is how many set-ups a run makes: the shape's count when it
// reports setup_s, one in a traced run, which does not.
func (s shape) rounds(cfg runConfig) int {
	if cfg.trace {
		return 1
	}
	return s.setups
}

const (
	traceRing   = 8192
	probeWindow = 2 * time.Second // HTTP side probe in traced runs
)

// buildOptions are the index options of a shape; extra adds tracing.
func (s shape) buildOptions(extra ...gqr.Option) []gqr.Option {
	var opts []gqr.Option
	if s.rerank {
		opts = append(opts, gqr.WithReranking(16, 64, 8))
	}
	return append(opts, extra...)
}

// tracedOptions turn on the flight recorder for every query, with a
// ring large enough to attribute a traced window's requests.
func tracedOptions() []gqr.Option {
	return []gqr.Option{gqr.WithTracing(1), gqr.WithTraceBuffer(traceRing)}
}

// answer is one search result as the benchmark stores it.
type answer struct {
	ids   []int
	dists []float64
}

func answerOf(nbrs []gqr.Neighbor) answer {
	a := answer{ids: make([]int, len(nbrs)), dists: make([]float64, len(nbrs))}
	for i, nb := range nbrs {
		a.ids[i], a.dists[i] = nb.ID, nb.Distance
	}
	return a
}

// sameNeighbors reports whether nbrs is bit-identical to a. Unlike
// equal it needs no conversion, so the timed loop allocates nothing for it.
func (a answer) sameNeighbors(nbrs []gqr.Neighbor) bool {
	if len(nbrs) != len(a.ids) {
		return false
	}
	for i, nb := range nbrs {
		if nb.ID != a.ids[i] || math.Float64bits(nb.Distance) != math.Float64bits(a.dists[i]) {
			return false
		}
	}
	return true
}

func (a answer) equal(b answer) bool {
	if len(a.ids) != len(b.ids) {
		return false
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] || math.Float64bits(a.dists[i]) != math.Float64bits(b.dists[i]) {
			return false
		}
	}
	return true
}

// distTol is the relative tolerance between a returned distance and
// the float64 recomputation: the program accumulates in float32.
const distTol = 1e-4

// checkAnswer verifies one result: k distinct ids, distances ascending,
// and each distance equal to an exact recomputation against the vector
// vecOf returns for the id (nil when the id is unknown).
func checkAnswer(q []float32, a answer, wantK int, vecOf func(id int) []float32) error {
	if len(a.ids) != wantK {
		return fmt.Errorf("%d neighbors, want %d", len(a.ids), wantK)
	}
	seen := make(map[int]bool, len(a.ids))
	for i, id := range a.ids {
		if seen[id] {
			return fmt.Errorf("id %d returned twice", id)
		}
		seen[id] = true
		if i > 0 && a.dists[i] < a.dists[i-1] {
			return fmt.Errorf("distances not ascending at rank %d: %g < %g", i, a.dists[i], a.dists[i-1])
		}
		v := vecOf(id)
		if v == nil {
			return fmt.Errorf("id %d is not a known vector", id)
		}
		exact := math.Sqrt(sqDist(q, v))
		if math.Abs(exact-a.dists[i]) > distTol*math.Max(exact, 1e-3) {
			return fmt.Errorf("id %d: distance %g, exact recomputation %g", id, a.dists[i], exact)
		}
	}
	return nil
}

// meanRecall is recall@k of answers against the exact top-k.
func meanRecall(answers []answer, gt [][]int32) float64 {
	var sum float64
	for i, a := range answers {
		sum += recallAt(a.ids, gt[i], k)
	}
	return sum / float64(len(answers))
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// memCounters are the process-wide runtime counters layer metrics take
// deltas of.
type memCounters struct {
	mallocs uint64
	numGC   uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, ms.NumGC}
}

// perK scales a count to a rate per 1,000 operations.
func perK(count float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return count * 1000 / float64(ops)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setBuildLayers records the build-stage split from Stats.
func setBuildLayers(res *result, st gqr.Stats) {
	res.setLayer("hash.train_s", st.TrainTime.Seconds(), "s")
	res.setLayer("hash.code_s", st.CodeTime.Seconds(), "s")
	res.setLayer("index.freeze_s", st.FreezeTime.Seconds(), "s")
	// Build time outside hash training, coding and freezing: the
	// product quantizer's training and encoding when re-ranking is on,
	// only snapshot publication otherwise.
	res.setLayer("quantization.train_s", (st.BuildTime - st.TrainTime - st.CodeTime - st.FreezeTime).Seconds(), "s")
}

// setSetup records the set-up times and their median.
func setSetup(res *result, setups []float64) {
	res.setE2E("setup_s", median(setups), "s")
	res.note("setup_s runs: %v", setups)
}

// setOverhead records the tracing overhead, traced minus untraced
// median latency, and notes both sides' quartiles so that the figure
// can be read against their spread.
func setOverhead(res *result, name string, untraced, traced dist) {
	res.setLayer("trace.overhead_us", traced.p50-untraced.p50, "us")
	res.note("%s latency untraced: %s %s; traced: %s %s", name, untraced.note(), untraced.quartiles(), traced.note(), traced.quartiles())
}

// setLatency records a latency distribution under name_p50_us and
// name_p99_us and notes its sample count.
func setLatency(res *result, name string, d dist) {
	res.setE2E(name+"_p50_us", d.p50, "us")
	res.setE2E(name+"_p99_us", d.tail, "us")
	res.note("%s latency: %s", name, d.note())
}
