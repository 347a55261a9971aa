package query

// Tests for the evaluation-stage overhaul: the gather-then-evaluate
// batching and the early-abandon bounded kernel must be invisible in
// results (identical ids and distances to the straightforward path),
// and the Searcher-scratch reuse must keep steady-state searches
// allocation-free beyond the returned result slices.

import (
	"fmt"
	"math"
	"testing"

	"gqr/internal/dataset"
	"gqr/internal/hash"
	"gqr/internal/index"
	"gqr/internal/vecmath"
)

// referenceSearch replays the pre-overhaul querying pipeline: fresh
// sequences and heap per call, interleaved visited-filtering and full
// (unbounded) distance computation per bucket. It is the oracle the
// batched early-abandon path must match id-for-id and bit-for-bit.
func referenceSearch(t *testing.T, ix *index.Index, m Method, q []float32, opt Options) Result {
	t.Helper()
	type state struct {
		seq   ProbeSequence
		code  uint64
		score float64
		alive bool
	}
	states := make([]state, len(ix.Tables))
	for ti := range states {
		states[ti].seq = m.NewSequence(ti, q)
		states[ti].code, states[ti].score, states[ti].alive = states[ti].seq.Next()
	}
	visited := make([]bool, ix.N)
	top := newTopK(opt.K)
	var st Stats
	useEarlyStop := opt.EarlyStop && opt.Mu > 0 && m.QDScores()
	for {
		best := -1
		for ti := range states {
			if !states[ti].alive {
				continue
			}
			if best < 0 || states[ti].score < states[best].score {
				best = ti
			}
		}
		if best < 0 {
			break
		}
		if useEarlyStop || (opt.Radius > 0 && opt.Mu > 0 && m.QDScores()) {
			bound := opt.Mu * states[best].score
			if useEarlyStop && top.Full() && bound*bound >= top.Worst() {
				st.EarlyStopped = true
				break
			}
			if opt.Radius > 0 && bound >= opt.Radius {
				st.EarlyStopped = true
				break
			}
		}
		st.BucketsGenerated++
		if ids := ix.Bucket(best, states[best].code); len(ids) > 0 {
			st.BucketsProbed++
			for _, id := range ids {
				if visited[id] {
					continue
				}
				visited[id] = true
				st.Candidates++
				top.Offer(vecmath.SquaredL2(q, ix.Vector(id)), id)
			}
		}
		if opt.MaxCandidates > 0 && st.Candidates >= opt.MaxCandidates {
			break
		}
		if opt.MaxBuckets > 0 && st.BucketsGenerated >= opt.MaxBuckets {
			break
		}
		states[best].code, states[best].score, states[best].alive = states[best].seq.Next()
	}
	ids, dists := top.Sorted()
	for i := range dists {
		dists[i] = math.Sqrt(dists[i])
	}
	if opt.Radius > 0 {
		cut := len(dists)
		for i, d := range dists {
			if d > opt.Radius {
				cut = i
				break
			}
		}
		ids, dists = ids[:cut], dists[:cut]
	}
	return Result{IDs: ids, Dists: dists, Stats: st}
}

// equalityCorpus builds one randomized corpus + index for the
// result-equality tests.
func equalityCorpus(t *testing.T, l hash.Learner, n, dim, bits, tables int, seed int64) (*index.Index, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "eq", N: n, Dim: dim, Clusters: 6, LatentDim: dim / 4, Seed: seed,
	})
	ds.SampleQueries(8, seed+1)
	ix, err := index.Build(l, ds.Vectors, ds.N(), ds.Dim, bits, tables, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

func assertSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("%s: %d results, reference has %d", label, len(got.IDs), len(want.IDs))
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("%s: id[%d] = %d, reference %d", label, i, got.IDs[i], want.IDs[i])
		}
		if got.Dists[i] != want.Dists[i] {
			t.Fatalf("%s: dist[%d] = %v, reference %v (must be bit-for-bit)", label, i, got.Dists[i], want.Dists[i])
		}
	}
}

// TestSearchMatchesReferenceAllMethods is the overhaul's correctness
// bar: for every method, over randomized corpora and option mixes
// (budgets, early stop, radius, multi-table), the batched early-abandon
// Search returns exactly the ids and distances of the straightforward
// path. One Searcher is reused across all queries of a corpus, so any
// cross-query scratch pollution (stale sequences, un-reset heap,
// leftover gather buffer) shows up as a mismatch.
func TestSearchMatchesReferenceAllMethods(t *testing.T) {
	type corpus struct {
		learner hash.Learner
		n, dim  int
		bits    int
		tables  int
		seed    int64
	}
	corpora := []corpus{
		{hash.ITQ{Iterations: 6}, 500, 16, 8, 1, 101},
		{hash.LSH{}, 700, 24, 10, 3, 202},
		{hash.PCAH{}, 300, 12, 8, 2, 303},
	}
	for _, c := range corpora {
		ix, ds := equalityCorpus(t, c.learner, c.n, c.dim, c.bits, c.tables, c.seed)
		mu := 1 / math.Sqrt(float64(c.bits)) // safe scale for ITQ/PCAH; LSH path ignores correctness of µ here
		optSets := []Options{
			{K: 10},
			{K: 1},
			{K: 5, MaxCandidates: 60},
			{K: 10, MaxCandidates: 200},
			{K: 10, MaxBuckets: 15},
			{K: 10, EarlyStop: true, Mu: mu},
			{K: 4, Radius: 2.5, Mu: mu},
			{K: c.n + 10}, // K > N
		}
		for _, name := range Methods() {
			m, err := NewMethod(name, ix)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSearcher(ix, m)
			for oi, opt := range optSets {
				for qi := 0; qi < ds.NQ(); qi++ {
					q := ds.Query(qi)
					got, err := s.Search(q, opt)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceSearch(t, ix, m, q, opt)
					label := fmt.Sprintf("seed=%d %s opt[%d] query %d", c.seed, name, oi, qi)
					assertSameResult(t, label, got, want)
					if got.Stats.Candidates != want.Stats.Candidates {
						t.Fatalf("%s: candidates %d, reference %d", label, got.Stats.Candidates, want.Stats.Candidates)
					}
					if got.Stats.BucketsProbed != want.Stats.BucketsProbed || got.Stats.EarlyStopped != want.Stats.EarlyStopped {
						t.Fatalf("%s: probe stats diverged: %+v vs %+v", label, got.Stats, want.Stats)
					}
				}
			}
		}
	}
}

// withGenericEval runs f with the evaluation stage forced onto the
// pure-Go kernel and no row prefetch.
func withGenericEval(f func()) {
	kernel, prefetch := evalKernel, evalPrefetch
	evalKernel, evalPrefetch = vecmath.SquaredL2BoundedGeneric, func([]float32, int, []int32) {}
	defer func() { evalKernel, evalPrefetch = kernel, prefetch }()
	f()
}

// TestEvaluationAsmMatchesGeneric checks the evaluation stage's default
// path (on amd64 the AVX2 kernel and row prefetch) against the pure-Go
// kernel: on a d=128 index every method must return the same ids,
// distances, candidates and abandon count.
func TestEvaluationAsmMatchesGeneric(t *testing.T) {
	ix, ds := equalityCorpus(t, hash.ITQ{Iterations: 6}, 3000, 128, 10, 2, 515)
	optSets := []Options{
		{K: 10},
		{K: 1},
		{K: 10, MaxCandidates: 300},
		{K: 50, MaxBuckets: 20},
	}
	abandoned := 0
	for _, name := range Methods() {
		m, err := NewMethod(name, ix)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSearcher(ix, m)
		for oi, opt := range optSets {
			for qi := 0; qi < ds.NQ(); qi++ {
				q := ds.Query(qi)
				got, err := s.Search(q, opt)
				if err != nil {
					t.Fatal(err)
				}
				var want Result
				withGenericEval(func() { want, err = s.Search(q, opt) })
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s opt[%d] query %d", name, oi, qi)
				assertSameResult(t, label, got, want)
				if got.Stats.Candidates != want.Stats.Candidates || got.Stats.EarlyAbandoned != want.Stats.EarlyAbandoned {
					t.Fatalf("%s: candidates/abandoned %d/%d, generic %d/%d", label,
						got.Stats.Candidates, got.Stats.EarlyAbandoned, want.Stats.Candidates, want.Stats.EarlyAbandoned)
				}
				abandoned += got.Stats.EarlyAbandoned
			}
		}
	}
	if abandoned == 0 {
		t.Fatal("no candidate was abandoned: the abandon path went untested")
	}
}

// TestEarlyAbandonActuallyFires guards the optimization itself: on a
// budgeted search with a full heap, the bounded kernel must be cutting
// distance computations short, otherwise the whole point is lost (and
// the counter in Stats would silently read zero).
func TestEarlyAbandonActuallyFires(t *testing.T) {
	ix, ds := equalityCorpus(t, hash.ITQ{Iterations: 6}, 800, 32, 10, 1, 909)
	s := NewSearcher(ix, NewGQR(ix))
	abandoned := 0
	for qi := 0; qi < ds.NQ(); qi++ {
		res, err := s.Search(ds.Query(qi), Options{K: 10, MaxCandidates: 400})
		if err != nil {
			t.Fatal(err)
		}
		abandoned += res.Stats.EarlyAbandoned
		if res.Stats.EarlyAbandoned >= res.Stats.Candidates {
			t.Fatalf("query %d: abandoned %d of %d candidates — the k results themselves must complete",
				qi, res.Stats.EarlyAbandoned, res.Stats.Candidates)
		}
	}
	if abandoned == 0 {
		t.Fatal("early abandonment never fired across the whole workload")
	}
}

// searchAllocBudget is the documented steady-state allocation constant:
// a warmed pooled Search allocates exactly its two returned result
// slices (ids + dists) and nothing else. The alloc regression test and
// the public docs share this number; if pooling rots, this fails.
const searchAllocBudget = 2

func TestSearchSteadyStateAllocs(t *testing.T) {
	for _, tables := range []int{1, 3} {
		ix, ds := equalityCorpus(t, hash.ITQ{Iterations: 6}, 600, 16, 8, tables, 404)
		for _, name := range Methods() {
			m, err := NewMethod(name, ix)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSearcher(ix, m)
			q := ds.Query(0)
			// Heap full (K=10 over 600 items, budget 150) and scratch
			// warmed by a first call — the pooled steady state.
			opt := Options{K: 10, MaxCandidates: 150}
			if _, err := s.Search(q, opt); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(30, func() {
				if _, err := s.Search(q, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > searchAllocBudget {
				t.Errorf("%s (%d tables): %.1f allocs/op, budget %d (result slices only)",
					name, tables, allocs, searchAllocBudget)
			}
		}
	}
}
