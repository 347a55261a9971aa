package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gqr"
	"gqr/internal/server"
)

const (
	searchRate = 500.0 // offered /search per second
	writeRate  = 100.0 // offered writes per second
	mixedConns = 2     // one for searches, one for writes
	// mixedWarm is load before the measured window, at the same rates:
	// with the default memtable of 256 Adds a seal comes about every
	// 2.8 s and the first merge (4 sealed segments) about 11 s in, so a
	// 10 s window starting here sees several seals and a merge.
	mixedWarm = 4 * time.Second
	// spinWindow is how early the generator wakes before a send is due;
	// it yields the processor until then.
	spinWindow   = 200 * time.Microsecond
	recallSample = 512 // pool queries whose recall is measured after the load
)

type opKind uint8

const (
	opSearch opKind = iota
	opAdd
	opDelete
	opUpdate
)

var opPath = [...]string{opSearch: "/search", opAdd: "/add", opDelete: "/vector/", opUpdate: "/vector/"}

// op is one scheduled request.
type op struct {
	due  time.Duration // from the start of the schedule
	kind opKind
	q    int // pool query of a search
	vec  int // spare row an add or update writes
	id   int // base id a delete or update targets
	body []byte
}

// schedule draws the seeded open-loop schedule over total: Poisson
// arrivals of searches at searchRate and writes at writeRate. Writes
// are 80% /add, 10% DELETE and 10% PUT. Delete and update targets are
// distinct base ids, so no write can miss. It returns the ops in due
// order and the number of spare rows the writes need.
func schedule(seed int64, total time.Duration, n0, npool int) ([]op, int) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var ops []op
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / searchRate * float64(time.Second))
		if t >= total {
			break
		}
		ops = append(ops, op{due: t, kind: opSearch, q: rng.Intn(npool)})
	}
	targets := rng.Perm(n0)
	var writes []op
	nextra := 0
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / writeRate * float64(time.Second))
		if t >= total {
			break
		}
		w := op{due: t}
		switch u := rng.Float64(); {
		case u < 0.8:
			w.kind, w.vec = opAdd, nextra
			nextra++
		case u < 0.9:
			w.kind, w.id = opDelete, targets[0]
			targets = targets[1:]
		default:
			w.kind, w.id, w.vec = opUpdate, targets[0], nextra
			targets = targets[1:]
			nextra++
		}
		writes = append(writes, w)
	}
	// Merge the two due-ordered streams.
	out := make([]op, 0, len(ops)+len(writes))
	i, j := 0, 0
	for i < len(ops) || j < len(writes) {
		if j == len(writes) || (i < len(ops) && ops[i].due <= writes[j].due) {
			out = append(out, ops[i])
			i++
		} else {
			out = append(out, writes[j])
			j++
		}
	}
	return out, nextra
}

// outcome is what happened to one scheduled op.
type outcome struct {
	t      opTiming
	call   interval // the request as the client sent and finished it
	seq    int64
	ok     bool
	failed string
	body   []byte // a search's response
	newID  int    // an add's or update's id
}

// waitUntil returns at t: it sleeps on the kernel timer until
// spinWindow before t, then yields until t.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			sleepPrecise(d - spinWindow)
			continue
		}
		runtime.Gosched()
	}
}

// openLoop sends ops on their schedule over mixedConns connections:
// one carries the searches and one the writes, as independent readers
// and writers would, so a search never waits on the client side for a
// write's fsync. One generator hands each op to its connection's worker
// when it is due; it never waits for a worker, so the wait for one
// counts in the op's latency from its due time. onWindow runs once,
// when the measured window opens.
func openLoop(cl *client, ops []op, onWindow func()) []outcome {
	outs := make([]outcome, len(ops))
	// Each queue is sized to the number of sends, so the generator never
	// blocks.
	queues := [mixedConns]chan int{make(chan int, len(ops)), make(chan int, len(ops))}
	start := time.Now()
	var wg sync.WaitGroup
	for _, q := range queues {
		wg.Add(1)
		go func(q chan int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range q {
				runOp(cl, &ops[i], &outs[i], &buf, start)
			}
		}(q)
	}
	windowed := false
	for i := range ops {
		if !windowed && ops[i].due >= mixedWarm {
			windowed = true
			onWindow()
		}
		waitUntil(start.Add(ops[i].due))
		outs[i].t.due = ops[i].due
		outs[i].t.sent = time.Since(start)
		if ops[i].kind == opSearch {
			queues[0] <- i
		} else {
			queues[1] <- i
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return outs
}

// runOp sends one op and records its outcome.
func runOp(cl *client, o *op, out *outcome, buf *bytes.Buffer, start time.Time) {
	var r call
	switch o.kind {
	case opSearch, opAdd:
		r = cl.do(http.MethodPost, opPath[o.kind], o.body, buf)
	case opDelete:
		r = cl.do(http.MethodDelete, opPath[o.kind]+strconv.Itoa(o.id), nil, buf)
	case opUpdate:
		r = cl.do(http.MethodPut, opPath[o.kind]+strconv.Itoa(o.id), o.body, buf)
	}
	out.t.done = time.Since(start)
	out.call, out.seq, out.ok = interval{r.start, r.end}, r.seq, r.ok()
	if !out.ok {
		out.failed = r.describe()
		return
	}
	switch o.kind {
	case opSearch:
		out.body = append([]byte(nil), r.body...)
	case opAdd, opUpdate:
		var resp server.AddResponse // UpdateResponse has the same shape
		if err := json.Unmarshal(r.body, &resp); err != nil {
			out.ok, out.failed = false, fmt.Sprintf("decode %s response: %v", opPath[o.kind], err)
			return
		}
		out.newID = resp.ID
	}
}

// mixedSetup is a durable index served over HTTP.
type mixedSetup struct {
	ix  *gqr.Index
	srv *benchServer
	dir string
}

// close stops the server, closes the index (which reports any failed
// background persistence) and removes the data directory.
func (m *mixedSetup) close() error {
	m.srv.stop()
	err := m.ix.Close()
	if rmErr := os.RemoveAll(m.dir); err == nil {
		err = rmErr
	}
	return err
}

// closeChecked closes m, recording a failure as a failed check.
func (m *mixedSetup) closeChecked(res *result) {
	if err := m.close(); err != nil {
		res.problem("close durable index: %v", err)
	}
}

// setupMixed builds the index, enables durability on a fresh data
// directory (WAL on, as gqr-server -data-dir runs) and starts the
// server.
func setupMixed(cfg runConfig, c *corpus, s shape, name string, opts ...gqr.Option) (*mixedSetup, error) {
	dir := filepath.Join(cfg.cacheDir, "data", fmt.Sprintf("%s-%d-%s", s.name, os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ix, err := gqr.Build(c.base, s.dim, s.buildOptions(opts...)...)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	if err := ix.EnableDurability(dir); err != nil {
		ix.Close()
		return nil, fmt.Errorf("enable durability: %w", err)
	}
	srv, err := startServer(ix)
	if err != nil {
		ix.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &mixedSetup{ix: ix, srv: srv, dir: dir}, nil
}

// windowCounters are read when the measured window opens and closes.
type windowCounters struct {
	stats       gqr.Stats
	mem         memCounters
	wchar       int64
	wrote, read int64
	prom        map[string]float64
}

func readWindow(m *mixedSetup, cl *client, withProm bool) (windowCounters, error) {
	var w windowCounters
	var err error
	if withProm {
		if w.prom, err = scrape(m.srv.url); err != nil {
			return w, err
		}
	}
	w.stats, w.mem = m.ix.Stats(), readMem()
	w.wrote, w.read = cl.wrote.Load(), cl.read.Load()
	w.wchar, err = procWchar()
	return w, err
}

// mixedRun is one pass of the schedule against one setup.
type mixedRun struct {
	outs           []outcome
	before, after  windowCounters
	search, writes []float64 // latency from due, microseconds, in the window
	late           []float64
	searches       int           // answered in the window
	requests       int           // sent in the window
	elapsed        time.Duration // from the window's start to its last reply
	userBytes      int64
}

// drive runs the schedule against m and collects the window's numbers.
func drive(m *mixedSetup, ops []op, dim int, withProm bool, res *result) (*mixedRun, error) {
	cl := newClient(m.srv.url, mixedConns)
	defer cl.close()
	run := &mixedRun{}
	var werr error
	run.outs = openLoop(cl, ops, func() { run.before, werr = readWindow(m, cl, withProm) })
	if werr != nil {
		return nil, werr
	}
	// The window's counters close after the last reply, before the
	// closing scrape adds socket traffic of its own.
	after, err := readWindow(m, cl, false)
	if err != nil {
		return nil, err
	}
	if withProm {
		if after.prom, err = scrape(m.srv.url); err != nil {
			return nil, err
		}
	}
	run.after = after
	for i, o := range run.outs {
		res.attempted++
		if !o.ok {
			res.failed++
			res.problem("%s at %v: %s", opPath[ops[i].kind], o.t.due, o.failed)
		}
		if o.t.due < mixedWarm {
			continue
		}
		run.requests++
		if d := o.t.done - mixedWarm; d > run.elapsed {
			run.elapsed = d
		}
		run.late = append(run.late, float64(o.t.lateness())/float64(time.Microsecond))
		if !o.ok {
			continue
		}
		lat := float64(o.t.latencyFromDue()) / float64(time.Microsecond)
		if ops[i].kind == opSearch {
			run.search = append(run.search, lat)
			run.searches++
		} else {
			run.writes = append(run.writes, lat)
			if ops[i].kind != opDelete {
				run.userBytes += int64(4 * dim)
			}
		}
	}
	return run, nil
}

// verify checks every search answer of a run and the final index:
// no id deleted before a search was sent is returned, distances ascend
// and match an exact recomputation, and an exhaustive search finds
// every acknowledged write and no deleted id. It returns recall@10 of
// recallSample pool queries against the final live set.
func verify(m *mixedSetup, c *corpus, ops []op, run *mixedRun, s shape, res *result) float64 {
	deletedAt := map[int]time.Time{}
	written := map[int][]float32{}
	for i, o := range run.outs {
		if !o.ok {
			continue
		}
		switch ops[i].kind {
		case opDelete:
			deletedAt[ops[i].id] = o.call.end
		case opUpdate:
			deletedAt[ops[i].id] = o.call.end
			written[o.newID] = c.extraVec(ops[i].vec)
		case opAdd:
			written[o.newID] = c.extraVec(ops[i].vec)
		}
	}
	vecOf := func(id int) []float32 {
		if v := c.baseOf(id); v != nil {
			return v
		}
		return written[id]
	}
	for i, o := range run.outs {
		if ops[i].kind != opSearch || !o.ok {
			continue
		}
		a, err := decodeSearch(o.body)
		if err == nil {
			err = checkAnswer(c.query(ops[i].q), a, k, vecOf)
		}
		if err != nil {
			res.problem("search at %v: %v", o.t.due, err)
			continue
		}
		for _, id := range a.ids {
			if at, ok := deletedAt[id]; ok && at.Before(o.call.start) {
				res.problem("search at %v returned id %d, deleted before it was sent", o.t.due, id)
			}
		}
	}
	for id, v := range written {
		nbrs, err := m.ix.Search(v, 1)
		if err != nil || len(nbrs) == 0 || nbrs[0].ID != id || nbrs[0].Distance > 1e-3 {
			res.problem("acknowledged write id %d not found by an exhaustive search for its vector (%v %v)", id, nbrs, err)
		}
	}
	for id := range deletedAt {
		nbrs, err := m.ix.Search(c.baseVec(id), 1)
		if err != nil || (len(nbrs) > 0 && nbrs[0].ID == id) {
			res.problem("deleted id %d still found by an exhaustive search (%v)", id, err)
		}
	}
	// Recall against the final live set, by brute force.
	maxID := c.n()
	for id := range written {
		if id >= maxID {
			maxID = id + 1
		}
	}
	rows := make([]float32, maxID*c.dim)
	copy(rows, c.base)
	for id, v := range written {
		copy(rows[id*c.dim:], v)
	}
	live := func(id int) bool {
		if _, dead := deletedAt[id]; dead {
			return false
		}
		return id < c.n() || written[id] != nil
	}
	queries := c.pool[:recallSample*c.dim]
	gt := bruteForce(rows, c.dim, live, queries)
	var sum float64
	for qi := range gt {
		nbrs, err := m.ix.Search(c.query(qi), k, gqr.WithMaxCandidates(s.budget))
		if err != nil {
			res.problem("recall query %d: %v", qi, err)
			continue
		}
		sum += recallAt(answerOf(nbrs).ids, gt[qi], k)
	}
	return sum / float64(len(gt))
}

// runMixed is the mixed-rw workload: an open loop of searches and
// writes over HTTP against a durable index.
func runMixed(cfg runConfig) (*result, error) {
	s := mixedRW
	res := newResult()
	ops, nextra := schedule(cfg.seed, mixedWarm+cfg.window(), s.n, s.pool)
	c := generate(cfg.seed, s.n, s.pool, nextra, s.dim)
	b, err := newBodies(c, s.budget, cfg.seed)
	if err != nil {
		return nil, err
	}
	for i := range ops {
		switch ops[i].kind {
		case opSearch:
			ops[i].body = b.search[ops[i].q]
		case opAdd:
			ops[i].body, err = json.Marshal(server.AddRequest{Vector: c.extraVec(ops[i].vec)})
		case opUpdate:
			ops[i].body, err = json.Marshal(server.UpdateRequest{Vector: c.extraVec(ops[i].vec)})
		}
		if err != nil {
			return nil, err
		}
	}
	m, run, err := mixedUntraced(cfg, s, c, ops, res)
	if err != nil {
		return nil, err
	}
	setLatency(res, "search", summarize(run.search))
	setLatency(res, "write", summarize(run.writes))
	res.setE2E("qps", float64(run.searches)/run.elapsed.Seconds(), "1/s")
	res.setE2E("recall_at_10", verify(m, c, ops, run, s, res), "ratio")
	res.note("offered: %.0f searches/s and %.0f writes/s; window holds %d requests after %v of warm-up", searchRate, writeRate, run.requests, mixedWarm)
	if !cfg.trace {
		m.closeChecked(res)
		return res, nil
	}
	if err := tracedMixed(cfg, s, c, ops, m, run, res); err != nil {
		return nil, err
	}
	return res, nil
}

// mixedUntraced sets the durable index up the workload's number of
// times (one set-up sample each; only the last stays up) and drives
// the schedule against the last. A traced run sets up once and scrapes
// /metrics around the window.
func mixedUntraced(cfg runConfig, s shape, c *corpus, ops []op, res *result) (*mixedSetup, *mixedRun, error) {
	var setups []float64
	var m *mixedSetup
	for i := 0; i < s.rounds(cfg); i++ {
		if m != nil {
			m.closeChecked(res)
			m = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if m, err = setupMixed(cfg, c, s, strconv.Itoa(i)); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setSetup(res, setups)
	res.setE2E("heap_mb", heapMB(), "MB")
	run, err := drive(m, ops, s.dim, cfg.trace, res)
	if err != nil {
		m.close()
		return nil, nil, err
	}
	return m, run, nil
}

// tracedMixed adds the per-layer metrics of mixed-rw to the untraced
// run of setup m, which it closes. The untraced run gives the
// lifecycle, WAL, allocation and network numbers; a traced pass of the
// same schedule on a fresh setup gives the stage split (from /metrics)
// and the flight-recorder layers; an HTTP probe on the traced index
// afterwards gives the /batch self time. The two passes cannot share a
// window, since each carries the schedule's writes, so the tracing
// overhead is noted beside both passes' quartiles.
func tracedMixed(cfg runConfig, s shape, c *corpus, ops []op, m *mixedSetup, run *mixedRun, res *result) error {
	setBuildLayers(res, m.ix.Stats())
	bw, aw := run.before, run.after
	ud := summarize(run.search)
	res.setLayer("server.allocs_per_req", ratio(float64(aw.mem.mallocs-bw.mem.mallocs), float64(run.requests)), "count")
	res.setLayer("runtime.gc_cycles_per_kq", perK(float64(aw.mem.numGC-bw.mem.numGC), run.searches), "1/kq")
	res.setLayer("gqr.method_rebuilds_per_kq", perK(float64(aw.stats.MethodRebuilds-bw.stats.MethodRebuilds), run.searches), "1/kq")
	setLifecycleLayers(res, bw.stats, aw.stats)
	setWorkLayers(res, s, workFromProm(bw.prom, aw.prom))
	p, err := scrape(m.srv.url)
	if err != nil {
		m.close()
		return err
	}
	res.setLayer("index.merge_ms", 1e3*ratio(p["gqr_index_merge_seconds_sum"], p["gqr_index_merge_seconds_count"]), "ms")
	fileBytes := (aw.wchar - bw.wchar) - (aw.wrote - bw.wrote) - (aw.read - bw.read)
	res.setLayer("wal.wchar_per_user_byte", ratio(float64(fileBytes), float64(run.userBytes)), "ratio")
	disk, err := dirBytes(m.dir)
	if err != nil {
		m.close()
		return err
	}
	res.setLayer("wal.disk_bytes_per_user_byte", ratio(float64(disk), float64(aw.stats.LiveItems*s.dim*4)), "ratio")
	res.note("wal: %d bytes written to files for %d user bytes (wchar minus loopback socket bytes); data dir %d bytes", fileBytes, run.userBytes, disk)
	late := summarize(run.late)
	res.setLayer("driver.late_p50_us", late.p50, "us")
	res.setLayer("driver.late_p99_us", late.tail, "us")
	res.note("driver lateness (open loop: hand-off minus due time): %s", late.note())
	var netXs []float64
	for i, o := range run.outs {
		if ops[i].kind != opSearch || !o.ok || o.t.due < mixedWarm {
			continue
		}
		if iv, ok := m.srv.timed.served(o.seq); ok {
			netXs = append(netXs, float64(o.call.dur()-iv.dur())/float64(time.Microsecond))
		}
	}
	res.setLayer("net.overhead_us", median(netXs), "us")
	m.closeChecked(res)
	runtime.GC()

	tm, err := setupMixed(cfg, c, s, "traced", tracedOptions()...)
	if err != nil {
		return err
	}
	defer tm.closeChecked(res)
	res.setLayer("gqr.allocs_per_query", allocsPerQuery(tm.ix, s, c), "count")
	trun, err := drive(tm, ops, s.dim, true, res)
	if err != nil {
		return err
	}
	verify(tm, c, ops, trun, s, res)
	td := summarize(trun.search)
	setStageLayersFromProm(res, trun.before.prom, trun.after.prom)
	spans := &spanLog{}
	var reqs []routeSpan
	for i, o := range trun.outs {
		if ops[i].kind != opSearch || !o.ok || o.t.due < mixedWarm {
			continue
		}
		spans.add("client /search", o.seq, o.call.start, o.call.end)
		if iv, ok := tm.srv.timed.served(o.seq); ok {
			reqs = append(reqs, routeSpan{iv: iv})
			spans.add("ServeHTTP /search", o.seq, iv.start, iv.end)
		}
	}
	ss := serverSelfTimes(tm.ix, reqs)
	ss.setRingLayers(res)
	ss.note(res, "traced window", len(reqs))
	setOverhead(res, "search from due", ud, td)

	// The probe's /batch answers come from the index after the load, so
	// its reference checks need the vectors the writes added.
	written := map[int][]float32{}
	for i, o := range trun.outs {
		if o.ok && (ops[i].kind == opAdd || ops[i].kind == opUpdate) {
			written[o.newID] = c.extraVec(ops[i].vec)
		}
	}
	vecOf := func(id int) []float32 {
		if v := c.baseOf(id); v != nil {
			return v
		}
		return written[id]
	}
	probed, err := probeServer(cfg, tm.ix, s, c, vecOf, nil, res, spans)
	if err != nil {
		return err
	}
	res.setLayer("server.batch_self_us", median(probed.self.batch), "us")
	writeTraces(cfg, res, tm.ix, spans)
	return nil
}
