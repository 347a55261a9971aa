package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gqr"
)

// runDirect drives one index through the library with a single
// closed-loop client: each SearchWithStats call starts when the
// previous one returns.
func runDirect(cfg runConfig, s shape) (*result, error) {
	res := newResult()
	c := generate(cfg.seed, s.n, s.pool, 0, s.dim)
	gt, err := groundTruth(cfg.cacheDir, s.name, cfg.seed, c)
	if err != nil {
		return nil, err
	}
	d, err := directUntraced(cfg, s, c, res)
	if err != nil {
		return nil, err
	}
	res.setE2E("recall_at_10", meanRecall(d.ref, gt), "ratio")
	setLatency(res, "search", summarize(micros(d.lp.lat)))
	res.setE2E("qps", median(d.lp.rates), "1/s")
	res.note("qps: median of %d slice rates %s", len(d.lp.rates), summarize(append([]float64(nil), d.lp.rates...)).quartiles())
	w := workOf(d.lp.work, d.lp.queries)
	res.note("work per query: %.1f candidates, %.2f buckets probed", w.candidates, w.probed)
	if cfg.trace {
		if err := tracedDirect(cfg, s, c, d, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// directRun is the untraced part of a direct workload: the index of
// the last round, its reference answers, the load over every round and
// the counters around the last round's load.
type directRun struct {
	ix         *gqr.Index
	ref        []answer
	lp         loopResult
	st0, st1   gqr.Stats
	mem0, mem1 memCounters
}

// directUntraced runs the workload's rounds: each builds the index
// afresh (one set-up sample) and then carries an equal share of the
// window's load, so set-up and load samples are spread over the whole
// run rather than bunched at either end. A traced run needs the load
// only for its counters and runs one round.
func directUntraced(cfg runConfig, s shape, c *corpus, res *result) (*directRun, error) {
	rounds := s.rounds(cfg)
	load := newDirectLoad(s, c, cfg.seed)
	d := &directRun{}
	var setups []float64
	for r := 0; r < rounds; r++ {
		d.ix = nil // let the previous index go before building the next
		runtime.GC()
		start := time.Now()
		ix, err := gqr.Build(c.base, s.dim, s.buildOptions()...)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		d.ix = ix
		if r == 0 {
			res.setE2E("heap_mb", heapMB(), "MB")
			d.ref = directReference(ix, s, c, res)
		}
		d.st0, d.mem0 = ix.Stats(), readMem()
		load.run(ix, d.ref, cfg.window()/time.Duration(rounds), res, nil, &d.lp)
		d.st1, d.mem1 = ix.Stats(), readMem()
	}
	setSetup(res, setups)
	return d, nil
}

// directReference searches every pool query once, checks each answer
// and returns them as the reference later repetitions must equal.
func directReference(ix *gqr.Index, s shape, c *corpus, res *result) []answer {
	ref := make([]answer, c.npool())
	for qi := range ref {
		res.attempted++
		nbrs, _, err := ix.SearchWithStats(c.query(qi), k, gqr.WithMaxCandidates(s.budget))
		if err != nil {
			res.failed++
			res.problem("query %d: %v", qi, err)
			continue
		}
		ref[qi] = answerOf(nbrs)
		if err := checkAnswer(c.query(qi), ref[qi], k, c.baseOf); err != nil {
			res.problem("query %d: %v", qi, err)
		}
	}
	return ref
}

// loopResult is what closed-loop windows measured, summed over every
// window run into it.
type loopResult struct {
	lat     []time.Duration // per search
	gaps    []time.Duration // driver time between one return and the next call
	rates   []float64       // queries per second in each slice of each window
	queries int
	work    gqr.SearchStats
}

// directLoad is a closed-loop client that searches the pool in a
// seeded order, carrying its place from one window to the next.
type directLoad struct {
	c     *corpus
	order []int
	next  int
	opts  []gqr.SearchOption
}

func newDirectLoad(s shape, c *corpus, seed int64) *directLoad {
	return &directLoad{
		c:     c,
		order: rand.New(rand.NewSource(seed)).Perm(c.npool()),
		opts:  []gqr.SearchOption{gqr.WithMaxCandidates(s.budget)},
	}
}

// run searches ix in a closed loop for d and adds what it measured to
// lr. Every answer must equal the reference for its query. spans, when
// non-nil, receives one span per call.
func (l *directLoad) run(ix *gqr.Index, ref []answer, d time.Duration, res *result, spans *spanLog, lr *loopResult) {
	start := time.Now()
	deadline := start.Add(d)
	slices := newRateSlices(start, d)
	prev := start
	for {
		qi := l.order[l.next%len(l.order)]
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		nbrs, st, err := ix.SearchWithStats(l.c.query(qi), k, l.opts...)
		t1 := time.Now()
		l.next++
		res.attempted++
		if err != nil {
			res.failed++
			res.problem("query %d: %v", qi, err)
			prev = t1
			continue
		}
		lr.lat = append(lr.lat, t1.Sub(t0))
		lr.gaps = append(lr.gaps, t0.Sub(prev))
		prev = t1
		lr.queries++
		lr.work.Merge(st)
		slices.add(t1, 1)
		if !ref[qi].sameNeighbors(nbrs) {
			res.problem("query %d: answer differs from its first answer", qi)
		}
		spans.add("gqr.SearchWithStats", int64(l.next), t0, t1)
	}
	lr.rates = append(lr.rates, slices.rates()...)
}

// altBlock is how long a traced run searches one index before it
// switches to the other, so that host drift falls on both alike.
const altBlock = 100 * time.Millisecond

// tracedDirect adds the per-layer metrics of a direct workload to the
// untraced run d. The untraced load gives the counters that need no
// tracing. A traced index (every query recorded) gives the stage split
// through the recorder's observer; it is searched in blocks that
// alternate with the untraced index over one window, so that the
// difference of their latencies is the tracing overhead and not host
// drift. An HTTP probe on the traced index gives the server and
// network layers at this query shape.
func tracedDirect(cfg runConfig, s shape, c *corpus, d *directRun, res *result) error {
	setBuildLayers(res, d.ix.Stats())
	res.setLayer("gqr.allocs_per_query", allocsPerQuery(d.ix, s, c), "count")
	setWorkLayers(res, s, workOf(d.lp.work, d.lp.queries))
	res.setLayer("runtime.gc_cycles_per_kq", perK(float64(d.mem1.numGC-d.mem0.numGC), d.lp.queries), "1/kq")
	res.setLayer("gqr.method_rebuilds_per_kq", perK(float64(d.st1.MethodRebuilds-d.st0.MethodRebuilds), d.lp.queries), "1/kq")
	setLifecycleLayers(res, d.st0, d.st1)
	res.setLayer("wal.wchar_per_user_byte", 0, "ratio")
	res.setLayer("wal.disk_bytes_per_user_byte", 0, "ratio")
	late := summarize(micros(d.lp.gaps))
	res.setLayer("driver.late_p50_us", late.p50, "us")
	res.setLayer("driver.late_p99_us", late.tail, "us")
	res.note("driver lateness (closed loop: time between a return and the next call): %s", late.note())

	tix, err := gqr.Build(c.base, s.dim, s.buildOptions(tracedOptions()...)...)
	if err != nil {
		return fmt.Errorf("traced build: %w", err)
	}
	tref := directReference(tix, s, c, res)
	for qi := range d.ref {
		if !d.ref[qi].equal(tref[qi]) {
			res.problem("query %d: traced index answers differently", qi)
		}
	}
	agg := &stageAgg{}
	tix.TraceRecorder().SetObserver(agg.observe)
	spans := &spanLog{}
	load := newDirectLoad(s, c, cfg.seed+1)
	var lu, lt loopResult
	for end := time.Now().Add(cfg.window()); time.Now().Before(end); {
		load.run(d.ix, d.ref, altBlock, res, nil, &lu)
		load.run(tix, d.ref, altBlock, res, spans, &lt)
	}
	tix.TraceRecorder().SetObserver(nil)
	agg.setLayers(res)
	setOverhead(res, "search", summarize(micros(lu.lat)), summarize(micros(lt.lat)))

	p, err := probeServer(cfg, tix, s, c, c.baseOf, d.ref, res, spans)
	if err != nil {
		return err
	}
	res.setLayer("server.self_us", median(p.self.search), "us")
	res.setLayer("server.batch_self_us", median(p.self.batch), "us")
	res.setLayer("server.allocs_per_req", p.allocsPerReq, "count")
	res.setLayer("net.overhead_us", p.netUs, "us")
	writeTraces(cfg, res, tix, spans)
	return nil
}

// allocsPerQuery counts heap allocations per search over one pass of
// the pool, on an otherwise idle process: an exact count, not a
// sampled one.
func allocsPerQuery(ix *gqr.Index, s shape, c *corpus) float64 {
	opts := []gqr.SearchOption{gqr.WithMaxCandidates(s.budget)}
	m0 := readMem()
	for qi := 0; qi < c.npool(); qi++ {
		// The reference pass has already checked these queries.
		ix.SearchWithStats(c.query(qi), k, opts...)
	}
	m1 := readMem()
	return float64(m1.mallocs-m0.mallocs) / float64(c.npool())
}
