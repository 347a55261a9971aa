package query

import (
	"fmt"
	"math"
	"time"

	"gqr/internal/index"
	"gqr/internal/quantization"
	"gqr/internal/trace"
	"gqr/internal/vecmath"
)

// Options controls one Search call.
type Options struct {
	// K is the number of nearest neighbors to return.
	K int
	// MaxCandidates is N of Algorithms 1-2: stop once this many
	// distinct items have been collected for evaluation. Zero means no
	// candidate budget.
	MaxCandidates int
	// MaxBuckets stops after this many buckets have been generated
	// (probed or found empty). Zero means no bucket budget.
	MaxBuckets int
	// EarlyStop enables the paper's §4.1 termination rule for QD
	// methods: once the k-th candidate distance d_k satisfies
	// µ·QD ≥ d_k for the next bucket, no unseen bucket can improve the
	// result, so probing stops. Ignored for Hamming-score methods.
	EarlyStop bool
	// Mu is the Theorem 2 scale µ = 1/(σ_max(H)·√m) used by EarlyStop
	// and Radius. Zero disables both rules.
	Mu float64
	// Radius, when positive, turns the search into a bounded-radius
	// query (§4.1's first stopping criterion): only items within this
	// Euclidean distance are returned, and for QD methods probing
	// stops once µ·QD of the next bucket reaches the radius — no
	// bucket beyond that point can contain an in-radius item.
	Radius float64
	// Profile enables per-stage timing (Stats.RetrievalTime /
	// Stats.EvaluationTime) at the cost of a few clock reads per
	// probed bucket. The paper's §2.2 frames querying as retrieval +
	// evaluation; the split shows where each method spends its budget.
	Profile bool
	// Trace, when non-nil, records one span per stage occurrence into
	// the flight-recorder trace (probe-sequence generation, per-table
	// probing, candidate gather, batched evaluation, heap finalize),
	// annotated with per-span work counters. A non-nil Trace implies
	// the Profile clock discipline: both views are derived from the
	// same stage boundaries, so SearchStats timing and trace spans
	// always tell one story.
	Trace *trace.Trace
	// TagMask, when nonzero, keeps only items whose metadata word has
	// every mask bit set (meta & TagMask == TagMask) — the tag fast
	// path, evaluated as one AND per candidate inside the gather loop.
	TagMask uint64
	// Filter, when non-nil, keeps only items it reports true for. It
	// runs inside the gather loop after the tombstone and tag-mask
	// tests, so rejected items never reach the distance kernel.
	Filter func(id int32, meta uint64) bool
	// Prepared, when non-nil, supplies this query's batch-precomputed
	// retrieval inputs (per-table codes and flipping costs, pre-built
	// ADC rows). The searcher consumes them in place of its own
	// per-query projection and ADC build; tables whose Costs entry is
	// nil fall back to the per-query path. Results are bit-identical
	// either way — NewSequencePrepared is behaviorally identical to
	// NewSequenceReuse, and the prepared ADC rows hold the same values
	// Reranker.ADCRows would produce.
	Prepared *Prepared
}

// Stats reports the work one Search performed.
type Stats struct {
	// BucketsGenerated counts sequence emissions, including codes that
	// hashed to empty buckets (GHR/GQR generate such codes; HR/QR/MIH
	// never do).
	BucketsGenerated int
	// BucketsProbed counts non-empty buckets evaluated.
	BucketsProbed int
	// Candidates counts distinct items evaluated (the paper's
	// "# retrieved items", Figure 8). An item counts as evaluated even
	// when the early-abandon kernel cut its distance computation short —
	// the retrieval work that surfaced it was spent either way.
	Candidates int
	// EarlyAbandoned counts candidates whose distance computation was
	// cut short because a partial sum already exceeded the k-th-best
	// distance. These items can never enter the result; the counter
	// shows how much evaluation work the bounded kernel saved.
	EarlyAbandoned int
	// Filtered counts gathered ids dropped before evaluation —
	// tombstoned items plus items rejected by TagMask or Filter. These
	// do NOT count as Candidates: they cost a bitmap test (and possibly
	// a predicate call), never a distance computation.
	Filtered int
	// ADCScored counts candidates scored by the re-ranking stage's ADC
	// table; Reranked counts the survivors it handed to exact
	// evaluation. Both zero when the bound view has no quantizer.
	ADCScored int
	Reranked  int
	// EarlyStopped reports whether the QD lower-bound rule fired.
	EarlyStopped bool
	// RetrievalTime and EvaluationTime split the query time between
	// deciding which buckets to probe and computing exact distances.
	// Both are derived from the same stage clock the flight recorder
	// uses: RetrievalTime = sequence init + probing (sequence
	// advances, merged best-first scan, bucket lookups, empty
	// buckets), EvaluationTime = candidate gather + ADC re-ranking +
	// batched evaluation. Populated when Options.Profile is set or a
	// Trace is attached.
	RetrievalTime  time.Duration
	EvaluationTime time.Duration
}

// Result is the outcome of one Search: ids and exact distances in
// ascending distance order, plus work stats.
type Result struct {
	IDs   []int32
	Dists []float64
	Stats Stats
}

// Searcher executes queries against an index with a fixed querying
// method. It owns all per-query scratch — the visited-epoch array, the
// Qbuf preprocessing buffer, the per-table sequence states (whose
// sequences the methods recycle via NewSequenceReuse), the top-k heap
// and the candidate gather buffer — so a steady-state Search allocates
// nothing beyond the two returned result slices. The flip side: a
// Searcher is not safe for concurrent use; keep one per goroutine.
// Searchers are cheap to pool: binding one to an immutable index
// snapshot (index.Index.Snapshot) makes every search lock-free, which
// is how the public API runs concurrent queries — a sync.Pool of
// Searchers per published snapshot.
type Searcher struct {
	ix      *index.Index
	method  Method
	pm      PreparedMethod // method's prepared-start hook, nil if unsupported
	visited []uint32
	epoch   uint32
	qbuf    []float32

	// quant/codes/factor are the bound view's serving quantizer state
	// (nil/0 when the index was built without WithReranking): the
	// shared id-aligned code slab and the heap-widening factor. The
	// ADC table, its rotation scratch, the widened heap and the
	// survivor buffer are per-searcher scratch, so a warmed re-ranked
	// search allocates nothing extra.
	quant   *quantization.Reranker
	codes   []uint8
	factor  int
	adcRows [][256]float32
	rotQ    []float32
	rtop    topK
	surv    []int32
	// Flat ADC collection (the default rerank path when early-stop is
	// off): scored (distance, id) pairs land in these parallel arrays
	// and one deterministic quickselect at drain keeps the best
	// `keep` = factor·k — O(candidates) total instead of a heap's
	// O(candidates·log(factor·k)) sift traffic, which is what made the
	// widened heap's cost grow superlinearly in the factor.
	adcDists []float32
	adcIDs   []int32
	keep     int
	flatADC  bool

	// tombs is the bound view's tombstone bitmap, cached at
	// construction and only when the view still has dead ids in its
	// posting lists (pending > 0) — once every tombstone is purged by a
	// seal or merge, searches skip even the per-bucket branch. meta is
	// the view's metadata slab (nil when no item carries a word).
	tombs []uint64
	meta  []uint64

	// Reusable per-query scratch (sized on first use, recycled after):
	// the merged probe-sequence states, the bounded top-k heap, the
	// gather buffer of the batched evaluation stage, and the stage
	// clock shared by profiling and flight-recorder tracing.
	states []tableState
	top    topK
	cand   []int32
	ref    index.BucketRef
	clock  stageClock
}

// stageClock is the single timing discipline of the pipeline: each
// tick reads the clock once, closing the interval since the previous
// tick as one stage span. Profiling (Stats.RetrievalTime /
// EvaluationTime) and flight-recorder traces both consume its
// boundaries, so there is no second timing codepath. When off, the
// pipeline pays one predictable branch per boundary and no clock
// reads; call sites must guard `if clk.on` so the Work annotations are
// not even computed on the disabled path.
type stageClock struct {
	on   bool
	tr   *trace.Trace // nil when only profiling
	mark time.Time
	dur  [trace.NumStages]time.Duration
}

// reset re-arms the clock for one search.
func (c *stageClock) reset(tr *trace.Trace, on bool) {
	c.tr = tr
	c.on = on
	c.dur = [trace.NumStages]time.Duration{}
	if on {
		c.mark = time.Now()
	}
}

// tick closes the interval since the previous tick as one span of the
// given stage. Callers must check c.on first.
func (c *stageClock) tick(stage trace.Stage, table int32, w trace.Work) {
	now := time.Now()
	c.dur[stage] += now.Sub(c.mark)
	c.tr.Record(stage, table, c.mark, now, w) // nil-safe
	c.mark = now
}

// tableState is one table's position in the merged best-score-first
// probe. The sequence pointer persists across queries so the method can
// recycle its buffers (NewSequenceReuse).
type tableState struct {
	seq   ProbeSequence
	code  uint64
	score float64
	alive bool
}

// NewSearcher binds a querying method to an index. The index must not
// be mutated while the Searcher is in use; bind to a snapshot when
// writers are live.
func NewSearcher(ix *index.Index, method Method) *Searcher {
	s := &Searcher{ix: ix, method: method, visited: make([]uint32, ix.N)}
	s.pm, _ = method.(PreparedMethod)
	if ix.PendingTombstones() > 0 {
		s.tombs = ix.TombWords()
	}
	s.meta = ix.MetaSlab()
	if q := ix.Quantizer(); q != nil && ix.RerankFactor > 0 {
		s.quant, s.codes, s.factor = q, ix.CodesSlab(), ix.RerankFactor
		if q.Rotated() {
			s.rotQ = make([]float32, ix.Dim)
		}
	}
	return s
}

// Method returns the bound querying method.
func (s *Searcher) Method() Method { return s.method }

// Qbuf returns a dim-sized scratch buffer for query preprocessing
// (metric normalization). It is part of the Searcher's poolable
// per-goroutine scratch: reusing it keeps pooled searches
// allocation-free on the hot path.
func (s *Searcher) Qbuf() []float32 {
	if len(s.qbuf) != s.ix.Dim {
		s.qbuf = make([]float32, s.ix.Dim)
	}
	return s.qbuf
}

// Search runs the full querying pipeline of §2.2 for one query:
// retrieval (probe sequence over every table, merged best-score-first)
// and evaluation (exact distances of candidate items, bounded max-heap
// of size K). It returns the approximate k-nearest neighbors in
// ascending distance order.
func (s *Searcher) Search(q []float32, opt Options) (Result, error) {
	if opt.K <= 0 {
		return Result{}, fmt.Errorf("query: K must be positive, got %d", opt.K)
	}
	if len(q) != s.ix.Dim {
		return Result{}, fmt.Errorf("query: query dim %d != index dim %d", len(q), s.ix.Dim)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped; clear and restart
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	if len(s.visited) < s.ix.N { // items were added since construction
		grown := make([]uint32, s.ix.N)
		copy(grown, s.visited)
		s.visited = grown
	}

	// One probe sequence per table, merged by current score: always
	// advance the table whose next bucket has the smallest score. With
	// one table this is a direct pass-through. States and sequences are
	// Searcher scratch: slot t always holds table t's sequence, so the
	// method recycles the right buffers.
	var st Stats
	clk := &s.clock
	clk.reset(opt.Trace, opt.Profile || opt.Trace != nil)
	if len(s.states) != len(s.ix.Tables) {
		s.states = make([]tableState, len(s.ix.Tables))
	}
	states := s.states
	prep := opt.Prepared
	for t := range states {
		if prep != nil && s.pm != nil && t < len(prep.Costs) && prep.Costs[t] != nil {
			states[t].seq = s.pm.NewSequencePrepared(t, prep.Codes[t], prep.Costs[t], states[t].seq)
		} else {
			states[t].seq = s.method.NewSequenceReuse(t, q, states[t].seq)
		}
		states[t].code, states[t].score, states[t].alive = states[t].seq.Next()
	}
	if clk.on {
		clk.tick(trace.StageSequence, -1, trace.Work{})
	}
	top := &s.top
	top.Reset(opt.K)
	// Quantized re-ranking: build the query's ADC lookup table once (M·K
	// float32s, cache-resident for the whole probe loop) and widen the
	// collection heap to factor·k. Candidates are then scored by M table
	// lookups each during probing; only the heap's survivors get an exact
	// distance after the loop.
	rerank := s.quant != nil
	useEarlyStop := opt.EarlyStop && opt.Mu > 0 && s.method.QDScores()
	probeTop := top
	s.flatADC = false
	// Prepared ADC rows replace the per-query table build; the
	// searcher's own scratch is saved and restored so the batch arena
	// never leaks into pooled per-searcher state (pooled searchers are
	// shared with the single-query path).
	var savedADC [][256]float32
	usePrepADC := false
	if rerank {
		if prep != nil && len(prep.ADCRows) == s.quant.M() {
			savedADC, s.adcRows, usePrepADC = s.adcRows, prep.ADCRows, true
		} else {
			s.adcRows = s.quant.ADCRows(q, s.adcRows, s.rotQ)
		}
		s.keep = s.factor * opt.K
		// Early-stop needs a running factor·k-th best for its µ·QD rule,
		// so that path keeps the widened heap; everything else collects
		// flat and selects once at drain.
		if useEarlyStop {
			s.rtop.Reset(s.keep)
			probeTop = &s.rtop
		} else {
			s.flatADC = true
			s.adcDists, s.adcIDs = s.adcDists[:0], s.adcIDs[:0]
		}
		if clk.on {
			clk.tick(trace.StageRerank, -1, trace.Work{})
		}
	}
	// Work deltas since the last probe/evaluate span (traced path only).
	lastGen, lastAband := 0, 0

	for {
		// Pick the live table with the smallest score (ties: lowest
		// table id). Table counts are ≤ 30 in all experiments, so a
		// linear scan beats a heap.
		best := -1
		for t := range states {
			if !states[t].alive {
				continue
			}
			if best < 0 || states[t].score < states[best].score {
				best = t
			}
		}
		if best < 0 {
			break // every sequence exhausted: the whole space was probed
		}

		if useEarlyStop || (opt.Radius > 0 && opt.Mu > 0 && s.method.QDScores()) {
			// µ·QD lower-bounds the true distance of every item in any
			// bucket with this or a larger QD (Theorem 2); distances
			// here are squared, so compare against the squared bound.
			// Under re-ranking the live heap holds ADC distances, so the
			// rule compares the bound against the quantized k-th best —
			// an approximation of the exact rule, consistent with the
			// stage's approximate candidate selection.
			bound := opt.Mu * states[best].score
			if useEarlyStop && probeTop.Full() && bound*bound >= probeTop.Worst() {
				st.EarlyStopped = true
				break
			}
			if opt.Radius > 0 && bound >= opt.Radius {
				st.EarlyStopped = true
				break
			}
		}

		code := states[best].code
		st.BucketsGenerated++
		// Slot-handle probe into the LSM storage: the bucket arrives as
		// one flat id slice per frozen segment plus the memtable slice,
		// written into the searcher's reusable scratch ref — no map
		// lookup and no allocation on this path.
		s.ix.Probe(best, code, &s.ref)
		if s.ref.Len() > 0 {
			st.BucketsProbed++
			if clk.on {
				// The probe span covers everything since the previous
				// boundary: sequence advances, the merged best-first
				// scan, empty-bucket emissions and this bucket lookup.
				clk.tick(trace.StageProbe, int32(best), trace.Work{
					Buckets: int32(st.BucketsGenerated - lastGen), Probed: 1,
				})
				lastGen = st.BucketsGenerated
			}
			// Gather-then-evaluate: first filter every tier against the
			// visited epochs into the scratch buffer, then run the
			// distance kernel over the batch. Separating the phases keeps
			// the visited bookkeeping out of the evaluation loop, which
			// then streams candidate rows from the contiguous data slab.
			// The gather loop is the lifecycle interception point: when
			// the view carries pending tombstones or the query a filter,
			// the filtering variant drops those ids here — a bitmap test
			// or predicate call each, never a distance computation. The
			// plain loops below are the unfiltered fast path, untouched.
			var cand []int32
			filteredBefore := st.Filtered
			if s.tombs != nil || opt.TagMask != 0 || opt.Filter != nil {
				cand = s.gatherFiltered(&opt, &st)
			} else {
				cand = s.cand[:0]
				for _, seg := range s.ref.Segs {
					for _, id := range seg {
						if s.visited[id] != s.epoch {
							s.visited[id] = s.epoch
							cand = append(cand, id)
						}
					}
				}
				for _, id := range s.ref.Tail {
					if s.visited[id] != s.epoch {
						s.visited[id] = s.epoch
						cand = append(cand, id)
					}
				}
			}
			s.cand = cand
			st.Candidates += len(cand)
			if clk.on {
				clk.tick(trace.StageGather, int32(best), trace.Work{
					Candidates: int32(len(cand)),
					Filtered:   int32(st.Filtered - filteredBefore),
				})
			}
			if rerank {
				if s.flatADC {
					s.adcCollectBatch(cand, &st)
				} else {
					s.adcScoreBatch(cand, &st)
				}
				if clk.on {
					clk.tick(trace.StageRerank, int32(best), trace.Work{
						ADCScored: int32(len(cand)),
					})
				}
			} else {
				s.evaluateBatch(q, cand, &st)
				if clk.on {
					clk.tick(trace.StageEvaluate, int32(best), trace.Work{
						Abandoned: int32(st.EarlyAbandoned - lastAband),
					})
					lastAband = st.EarlyAbandoned
				}
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
	if clk.on {
		// Loop-exit remainder: trailing sequence advances, scans and
		// empty buckets since the last boundary belong to probing.
		clk.tick(trace.StageProbe, -1, trace.Work{
			Buckets: int32(st.BucketsGenerated - lastGen),
		})
	}
	if rerank {
		// Exact evaluation runs once, over the re-ranking survivors —
		// at most factor·k items regardless of how many candidates the
		// probe loop gathered.
		var surv []int32
		if s.flatADC {
			if len(s.adcIDs) > s.keep {
				adcSelectTop(s.adcDists, s.adcIDs, s.keep)
				s.adcDists, s.adcIDs = s.adcDists[:s.keep], s.adcIDs[:s.keep]
			}
			surv = s.adcIDs
			if clk.on {
				// The selection belongs to the rerank stage, not to the
				// exact evaluation that follows.
				clk.tick(trace.StageRerank, -1, trace.Work{})
			}
		} else {
			s.surv = s.rtop.AppendIDs(s.surv[:0])
			surv = s.surv
		}
		st.Reranked = len(surv)
		s.evaluateBatch(q, surv, &st)
		if clk.on {
			clk.tick(trace.StageEvaluate, -1, trace.Work{
				Candidates: int32(len(surv)),
				Abandoned:  int32(st.EarlyAbandoned - lastAband),
			})
		}
	}

	if usePrepADC {
		s.adcRows = savedADC
	}

	ids, dists := top.Sorted()
	for i := range dists {
		dists[i] = math.Sqrt(dists[i])
	}
	// (ids and dists are the only per-search allocations on the warmed
	// path; everything else above is Searcher scratch.)
	if opt.Radius > 0 {
		// Keep only in-radius items (the heap may hold farther ones).
		cut := len(dists)
		for i, d := range dists {
			if d > opt.Radius {
				cut = i
				break
			}
		}
		ids, dists = ids[:cut], dists[:cut]
	}
	if clk.on {
		clk.tick(trace.StageFinalize, -1, trace.Work{})
		st.RetrievalTime = clk.dur[trace.StageSequence] + clk.dur[trace.StageProbe]
		st.EvaluationTime = clk.dur[trace.StageGather] + clk.dur[trace.StageRerank] + clk.dur[trace.StageEvaluate]
	}
	return Result{IDs: ids, Dists: dists, Stats: st}, nil
}

// gatherFiltered is the filtering variant of the gather loop: it walks
// the probed bucket's tiers like the fast path but drops tombstoned ids
// (bitmap test) and, when the query carries a TagMask or Filter, items
// whose metadata word fails them. Dropped ids are still marked visited
// — re-testing them in another bucket would be wasted work — and are
// counted in Stats.Filtered, not Candidates.
func (s *Searcher) gatherFiltered(opt *Options, st *Stats) []int32 {
	cand := s.cand[:0]
	keep := func(id int32) bool {
		if w := int(id) >> 6; w < len(s.tombs) && s.tombs[w]&(1<<(uint(id)&63)) != 0 {
			return false
		}
		var meta uint64
		if s.meta != nil {
			meta = s.meta[id]
		}
		if opt.TagMask != 0 && meta&opt.TagMask != opt.TagMask {
			return false
		}
		if opt.Filter != nil && !opt.Filter(id, meta) {
			return false
		}
		return true
	}
	for _, seg := range s.ref.Segs {
		for _, id := range seg {
			if s.visited[id] != s.epoch {
				s.visited[id] = s.epoch
				if keep(id) {
					cand = append(cand, id)
				} else {
					st.Filtered++
				}
			}
		}
	}
	for _, id := range s.ref.Tail {
		if s.visited[id] != s.epoch {
			s.visited[id] = s.epoch
			if keep(id) {
				cand = append(cand, id)
			} else {
				st.Filtered++
			}
		}
	}
	return cand
}

// adcScoreBatch runs the re-ranking stage over one gathered candidate
// batch: each id costs M table lookups into the query's ADC table (no
// vector row is touched — the whole batch reads the byte-code slab and
// an ~M·K·4-byte table, both cache-resident), and the quantized
// distance competes for a slot in the widened rerank heap.
func (s *Searcher) adcScoreBatch(ids []int32, st *Stats) {
	m := s.quant.M()
	rows, codes, rtop := s.adcRows, s.codes, &s.rtop
	// Track the heap's worst locally: once full, most candidates lose on
	// one float compare and never pay the Offer call.
	bound := math.Inf(1)
	if rtop.Full() {
		bound = rtop.Worst()
	}
	if m == 8 && len(rows) == 8 {
		// The default shape gets a fully unrolled loop over fixed-size
		// array views: every bounds check is either hoisted into the two
		// conversions or eliminated (a byte can't index past a [256]
		// row), and the pairwise float32 sums pipeline independently.
		r := (*[8][256]float32)(rows)
		for _, id := range ids {
			off := int(id) * 8
			c := (*[8]uint8)(codes[off : off+8])
			d := float64((r[0][c[0]] + r[1][c[1]] + r[2][c[2]] + r[3][c[3]]) +
				(r[4][c[4]] + r[5][c[5]] + r[6][c[6]] + r[7][c[7]]))
			if d > bound {
				continue
			}
			if rtop.Offer(d, id) && rtop.Full() {
				bound = rtop.Worst()
			}
		}
		st.ADCScored += len(ids)
		return
	}
	if m == 16 && len(rows) == 16 {
		// Same array-view trick for the high-fidelity shape: sixteen
		// check-free lookups in four independent 4-wide chains.
		r := (*[16][256]float32)(rows)
		for _, id := range ids {
			off := int(id) * 16
			c := (*[16]uint8)(codes[off : off+16])
			d := float64(((r[0][c[0]] + r[1][c[1]] + r[2][c[2]] + r[3][c[3]]) +
				(r[4][c[4]] + r[5][c[5]] + r[6][c[6]] + r[7][c[7]])) +
				((r[8][c[8]] + r[9][c[9]] + r[10][c[10]] + r[11][c[11]]) +
					(r[12][c[12]] + r[13][c[13]] + r[14][c[14]] + r[15][c[15]])))
			if d > bound {
				continue
			}
			if rtop.Offer(d, id) && rtop.Full() {
				bound = rtop.Worst()
			}
		}
		st.ADCScored += len(ids)
		return
	}
	for _, id := range ids {
		off := int(id) * m
		code := codes[off : off+m : off+m]
		var d0, d1 float32
		sub := 0
		for ; sub+2 <= m; sub += 2 {
			d0 += rows[sub][code[sub]]
			d1 += rows[sub+1][code[sub+1]]
		}
		if sub < m {
			d0 += rows[sub][code[sub]]
		}
		d := float64(d0) + float64(d1)
		if d > bound {
			continue
		}
		if rtop.Offer(d, id) && rtop.Full() {
			bound = rtop.Worst()
		}
	}
	st.ADCScored += len(ids)
}

// adcCollectBatch is the flat counterpart of adcScoreBatch: quantized
// distances are appended to the (dists, ids) scratch arrays with no
// per-candidate heap work; one quickselect at drain (adcSelectTop)
// keeps the best factor·k. For unbounded-budget searches the buffer is
// folded back down to the running top-keep whenever it outgrows a few
// multiples of keep — selection retains every candidate that could
// still survive, so compaction never changes the final set, it only
// bounds memory.
func (s *Searcher) adcCollectBatch(ids []int32, st *Stats) {
	m := s.quant.M()
	rows, codes := s.adcRows, s.codes
	// Pre-grow the output arrays once per batch: the scoring loops then
	// store by index (one bounds check the compiler can hoist) instead
	// of paying two append capacity checks per candidate.
	dd, di := s.adcDists, s.adcIDs
	base := len(dd)
	need := base + len(ids)
	if cap(dd) < need {
		grown := make([]float32, base, need+need/2)
		copy(grown, dd)
		dd = grown
	}
	dd = dd[:need]
	di = append(di, ids...)
	out := dd[base:need:need]
	switch {
	case m == 8 && len(rows) == 8:
		r := (*[8][256]float32)(rows)
		for i, id := range ids {
			off := int(id) * 8
			c := (*[8]uint8)(codes[off : off+8])
			out[i] = (r[0][c[0]] + r[1][c[1]] + r[2][c[2]] + r[3][c[3]]) +
				(r[4][c[4]] + r[5][c[5]] + r[6][c[6]] + r[7][c[7]])
		}
	case m == 16 && len(rows) == 16:
		r := (*[16][256]float32)(rows)
		for i, id := range ids {
			off := int(id) * 16
			c := (*[16]uint8)(codes[off : off+16])
			out[i] = ((r[0][c[0]] + r[1][c[1]] + r[2][c[2]] + r[3][c[3]]) +
				(r[4][c[4]] + r[5][c[5]] + r[6][c[6]] + r[7][c[7]])) +
				((r[8][c[8]] + r[9][c[9]] + r[10][c[10]] + r[11][c[11]]) +
					(r[12][c[12]] + r[13][c[13]] + r[14][c[14]] + r[15][c[15]]))
		}
	default:
		for i, id := range ids {
			off := int(id) * m
			code := codes[off : off+m : off+m]
			var d0, d1 float32
			sub := 0
			for ; sub+2 <= m; sub += 2 {
				d0 += rows[sub][code[sub]]
				d1 += rows[sub+1][code[sub+1]]
			}
			if sub < m {
				d0 += rows[sub][code[sub]]
			}
			out[i] = d0 + d1
		}
	}
	st.ADCScored += len(ids)
	lim := s.keep * 4
	if lim < 4096 {
		lim = 4096
	}
	if len(di) > lim {
		adcSelectTop(dd, di, s.keep)
		dd, di = dd[:s.keep], di[:s.keep]
	}
	s.adcDists, s.adcIDs = dd, di
}

// The evaluation stage's distance kernel and row prefetch. They are
// variables only as a test hook: the bit-identity test swaps in the
// pure-Go kernel and no prefetch; nothing else assigns them.
var (
	evalKernel   = vecmath.SquaredL2Bounded
	evalPrefetch = vecmath.PrefetchRows
)

// evalPrefetchAhead is how many candidates ahead of the kernel
// evaluateBatch prefetches rows, in groups of this many. Most
// candidates abandon within their first 32 dims, so prefetch time is
// the latency of each row's first cache lines, not its bandwidth.
const evalPrefetchAhead = 8

// evaluateBatch runs the evaluation stage over one gathered candidate
// batch: exact squared distances against the top-k heap, four candidate
// rows per step over the contiguous data slab. The live k-th-best
// distance is threaded into the bounded kernel as the abandon bound, so
// once the heap is full most candidates stop after one or two 16-dim
// blocks instead of finishing their distance. Every eight rows it
// prefetches the first two cache lines of the next eight, so their
// memory latency overlaps the kernel work in between.
//
// Early abandonment cannot change the result: the kernel only reports
// a value above the bound when the true distance provably exceeds the
// current k-th best (see vecmath.SquaredL2Bounded), and such a
// candidate could never enter the heap — an exact tie with the k-th
// best runs to completion and is still decided by the heap's id
// tie-break.
func (s *Searcher) evaluateBatch(q []float32, ids []int32, st *Stats) {
	data, dim := s.ix.Data, s.ix.Dim
	kernel, prefetch := evalKernel, evalPrefetch
	top := &s.top
	bound := math.Inf(1)
	if top.Full() {
		bound = top.Worst()
	}
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		if next := i + evalPrefetchAhead; i%evalPrefetchAhead == 0 && next < len(ids) {
			prefetch(data, dim, ids[next:min(next+evalPrefetchAhead, len(ids))])
		}
		// Resolve the four rows up front: the id indirections issue
		// early and the distance loops then stream from four known
		// offsets of one slab.
		r0 := int(ids[i]) * dim
		r1 := int(ids[i+1]) * dim
		r2 := int(ids[i+2]) * dim
		r3 := int(ids[i+3]) * dim
		v0 := data[r0 : r0+dim : r0+dim]
		v1 := data[r1 : r1+dim : r1+dim]
		v2 := data[r2 : r2+dim : r2+dim]
		v3 := data[r3 : r3+dim : r3+dim]
		if d := kernel(q, v0, bound); d > bound {
			st.EarlyAbandoned++
		} else if top.Offer(d, ids[i]) && top.Full() {
			bound = top.Worst()
		}
		if d := kernel(q, v1, bound); d > bound {
			st.EarlyAbandoned++
		} else if top.Offer(d, ids[i+1]) && top.Full() {
			bound = top.Worst()
		}
		if d := kernel(q, v2, bound); d > bound {
			st.EarlyAbandoned++
		} else if top.Offer(d, ids[i+2]) && top.Full() {
			bound = top.Worst()
		}
		if d := kernel(q, v3, bound); d > bound {
			st.EarlyAbandoned++
		} else if top.Offer(d, ids[i+3]) && top.Full() {
			bound = top.Worst()
		}
	}
	for ; i < len(ids); i++ {
		r := int(ids[i]) * dim
		v := data[r : r+dim : r+dim]
		if d := kernel(q, v, bound); d > bound {
			st.EarlyAbandoned++
		} else if top.Offer(d, ids[i]) && top.Full() {
			bound = top.Worst()
		}
	}
}
