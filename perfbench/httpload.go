package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gqr"
	"gqr/internal/server"
)

// seqHeader carries the client's request number to the timing wrapper,
// joining a client round trip to its ServeHTTP interval.
const seqHeader = "X-Perfbench-Seq"

// interval is one timed span of wall time.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// timedHandler times every call into the server's ServeHTTP from
// outside, keyed by the request number in seqHeader.
type timedHandler struct {
	next http.Handler
	mu   sync.Mutex
	by   []interval // by request number
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	end := time.Now()
	seq, err := strconv.Atoi(r.Header.Get(seqHeader))
	if err != nil || seq < 0 {
		return
	}
	t.mu.Lock()
	for len(t.by) <= seq {
		t.by = append(t.by, interval{})
	}
	t.by[seq] = interval{start, end}
	t.mu.Unlock()
}

// served returns the ServeHTTP interval of request seq, if recorded.
func (t *timedHandler) served(seq int64) (interval, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq < 0 || int(seq) >= len(t.by) || t.by[seq].start.IsZero() {
		return interval{}, false
	}
	return t.by[seq], true
}

// benchServer is the handler gqr-server builds, on a loopback listener.
type benchServer struct {
	url   string
	timed *timedHandler
	srv   *http.Server
	done  chan error
}

// startServer serves ix the way gqr-server does by default (no
// coalescing, request logging at Info) except that the text log goes to
// io.Discard: formatting cost stays in, terminal I/O stays out. It
// returns once the server answers /healthz.
func startServer(ix *gqr.Index) (*benchServer, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{}))
	th := &timedHandler{next: server.New(ix, server.WithLogger(logger))}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &benchServer{
		url:   "http://" + ln.Addr().String(),
		timed: th,
		srv:   &http.Server{Handler: th, ReadHeaderTimeout: 10 * time.Second},
		done:  make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("server start: %w", err)
	}
	return s, nil
}

// stop shuts the server down and waits for its serve loop to end.
func (s *benchServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
	http.DefaultClient.CloseIdleConnections()
}

// countingConn counts the bytes a client connection writes and reads,
// so socket traffic can be told apart from file writes in the
// process-wide I/O counters.
type countingConn struct {
	net.Conn
	wrote, read *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wrote.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// client sends load over at most conns keep-alive connections.
type client struct {
	base        string
	hc          *http.Client
	tr          *http.Transport
	seq         atomic.Int64
	wrote, read atomic.Int64
}

func newClient(base string, conns int) *client {
	c := &client{base: base}
	var d net.Dialer
	c.tr = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{conn, &c.wrote, &c.read}, nil
		},
	}
	c.hc = &http.Client{Transport: c.tr}
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// call is one request's outcome as the client saw it.
type call struct {
	seq    int64
	status int
	start  time.Time
	end    time.Time // body fully read
	body   []byte    // aliases buf
	err    error
}

// do sends one request and reads the whole response into buf.
func (c *client) do(method, path string, body []byte, buf *bytes.Buffer) call {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return call{err: err}
	}
	cl := call{seq: c.seq.Add(1) - 1}
	req.Header.Set(seqHeader, strconv.FormatInt(cl.seq, 10))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	cl.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		cl.err = err
		cl.end = time.Now()
		return cl
	}
	buf.Reset()
	_, cl.err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	cl.end = time.Now()
	cl.status = resp.StatusCode
	cl.body = buf.Bytes()
	return cl
}

// ok reports whether the call succeeded with a 2xx status.
func (cl call) ok() bool { return cl.err == nil && cl.status >= 200 && cl.status < 300 }

func (cl call) describe() string {
	if cl.err != nil {
		return cl.err.Error()
	}
	return fmt.Sprintf("status %d: %s", cl.status, bytes.TrimSpace(cl.body))
}

// scrape fetches /metrics over its own connection and returns every
// series by its full name.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return parseProm(b), nil
}

const batchSize = 16

// bodies are the pre-encoded request bodies of a query pool: one
// /search body per pool query and a set of /batch bodies of batchSize
// distinct pool queries each.
type bodies struct {
	search   [][]byte
	batch    [][]byte
	batchIdx [][]int
}

func newBodies(c *corpus, budget int, seed int64) (*bodies, error) {
	b := &bodies{}
	for qi := 0; qi < c.npool(); qi++ {
		body, err := json.Marshal(server.SearchRequest{Query: c.query(qi), K: k, MaxCandidates: budget})
		if err != nil {
			return nil, err
		}
		b.search = append(b.search, body)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 64; i++ {
		idx := rng.Perm(c.npool())[:batchSize]
		req := server.BatchRequest{K: k, MaxCandidates: budget}
		for _, qi := range idx {
			req.Queries = append(req.Queries, c.query(qi))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		b.batch = append(b.batch, body)
		b.batchIdx = append(b.batchIdx, idx)
	}
	return b, nil
}

// httpRef holds the raw response to every pre-encoded body. Reads of a
// static index are deterministic, so every later response to the same
// body must be byte-identical.
type httpRef struct {
	search, batch [][]byte
	answers       []answer
}

func decodeSearch(body []byte) (answer, error) {
	var resp server.SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return answer{}, fmt.Errorf("decode /search response: %w", err)
	}
	return answerOfJSON(resp.Neighbors), nil
}

func answerOfJSON(nbrs []server.NeighborJSON) answer {
	a := answer{ids: make([]int, len(nbrs)), dists: make([]float64, len(nbrs))}
	for i, nb := range nbrs {
		a.ids[i], a.dists[i] = nb.ID, nb.Distance
	}
	return a
}

// httpReference sends every body once and checks the answers: each
// /search answer is verified against the corpus (and against lib, the
// library's answers, when given), and every /batch entry must be
// bit-identical to the /search answer for the same query.
func httpReference(cl *client, b *bodies, c *corpus, vecOf func(int) []float32, lib []answer, res *result) *httpRef {
	ref := &httpRef{answers: make([]answer, len(b.search))}
	var buf bytes.Buffer
	for qi, body := range b.search {
		res.attempted++
		r := cl.do(http.MethodPost, "/search", body, &buf)
		if !r.ok() {
			res.failed++
			res.problem("/search query %d: %s", qi, r.describe())
			ref.search = append(ref.search, nil)
			continue
		}
		ref.search = append(ref.search, append([]byte(nil), r.body...))
		a, err := decodeSearch(r.body)
		if err == nil {
			err = checkAnswer(c.query(qi), a, k, vecOf)
		}
		if err != nil {
			res.problem("/search query %d: %v", qi, err)
		}
		if lib != nil && !a.equal(lib[qi]) {
			res.problem("/search query %d: differs from the library's answer", qi)
		}
		ref.answers[qi] = a
	}
	for bi, body := range b.batch {
		res.attempted++
		r := cl.do(http.MethodPost, "/batch", body, &buf)
		if !r.ok() {
			res.failed++
			res.problem("/batch %d: %s", bi, r.describe())
			ref.batch = append(ref.batch, nil)
			continue
		}
		ref.batch = append(ref.batch, append([]byte(nil), r.body...))
		var resp server.BatchResponse
		if err := json.Unmarshal(r.body, &resp); err != nil || len(resp.Results) != batchSize {
			res.problem("/batch %d: undecodable or short response", bi)
			continue
		}
		for j, e := range resp.Results {
			qi := b.batchIdx[bi][j]
			if e.Error != "" || !answerOfJSON(e.Neighbors).equal(ref.answers[qi]) {
				res.problem("/batch %d entry %d: not bit-identical to /search for query %d", bi, j, qi)
			}
		}
	}
	return ref
}

// httpConns is the number of keep-alive connections a closed loop
// uses; batchEvery is how many of the requests each sends hold one
// /batch, the rest being /search.
const (
	httpConns  = 2
	batchEvery = 8
)

// httpTarget is one server a closed loop sends to: its client, the
// reference responses every reply must equal, and the log its client
// spans go to (nil for none).
type httpTarget struct {
	cl    *client
	ref   *httpRef
	spans *spanLog
}

// httpCall is one closed-loop request as recorded.
type httpCall struct {
	target int // index into the loop's targets
	seq    int64
	batch  bool
	iv     interval
	gap    time.Duration // since this connection's previous reply
}

// httpLoop is what closed-loop HTTP windows measured.
type httpLoop struct {
	calls   []httpCall
	queries int       // /search requests plus batchSize per /batch
	rates   []float64 // queries per second in each slice of each window
}

// add appends another window's measurements.
func (l *httpLoop) add(o httpLoop) {
	l.calls = append(l.calls, o.calls...)
	l.queries += o.queries
	l.rates = append(l.rates, o.rates...)
}

// of returns the calls sent to target t.
func (l httpLoop) of(t int) httpLoop {
	var out httpLoop
	for _, c := range l.calls {
		if c.target == t {
			out.calls = append(out.calls, c)
		}
	}
	return out
}

// closedLoopHTTP runs httpConns closed-loop clients for d. Of every
// batchEvery requests a client sends, one is a /batch of the bodies b
// and the rest are /search; every response must equal its target's
// reference. With block > 0 the clients switch target every block, so
// that host drift falls on every target alike; otherwise they send to
// targets[0] only.
//
// With serialBatches, at most one /batch is in flight at a time, so
// each /batch request's library traces can be told apart from another
// batch's; traced runs use it.
func closedLoopHTTP(targets []httpTarget, b *bodies, d, block time.Duration, seed int64, serialBatches bool, res *result) httpLoop {
	var mu, batchMu sync.Mutex
	var out httpLoop
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < httpConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			var buf bytes.Buffer
			var calls []httpCall
			var attempted, failed, queries int
			var problems []string
			prev := time.Now()
			for i := 0; ; i++ {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				ti := 0
				if block > 0 {
					ti = int(now.Sub(start)/block) % len(targets)
				}
				tg := targets[ti]
				// Clients are offset within the mix so their batches
				// seldom overlap.
				isBatch := (i+w*batchEvery/httpConns)%batchEvery == batchEvery-1
				var r call
				var want []byte
				if isBatch {
					bi := rng.Intn(len(b.batch))
					if serialBatches {
						batchMu.Lock()
					}
					r = tg.cl.do(http.MethodPost, "/batch", b.batch[bi], &buf)
					if serialBatches {
						batchMu.Unlock()
					}
					want = tg.ref.batch[bi]
				} else {
					qi := rng.Intn(len(b.search))
					r = tg.cl.do(http.MethodPost, "/search", b.search[qi], &buf)
					want = tg.ref.search[qi]
				}
				attempted++
				if !r.ok() {
					failed++
					problems = append(problems, r.describe())
					prev = r.end
					continue
				}
				if !sameResults(r.body, want, isBatch) {
					problems = append(problems, fmt.Sprintf("request %d: response differs from the reference for the same body", r.seq))
				}
				calls = append(calls, httpCall{target: ti, seq: r.seq, batch: isBatch, iv: interval{r.start, r.end}, gap: r.start.Sub(prev)})
				prev = r.end
				if isBatch {
					queries += batchSize
				} else {
					queries++
				}
			}
			mu.Lock()
			out.calls = append(out.calls, calls...)
			out.queries += queries
			res.attempted += attempted
			res.failed += failed
			for _, p := range problems {
				res.problem("%s", p)
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	slices := newRateSlices(start, d)
	for _, c := range out.calls {
		route, n := "/search", 1
		if c.batch {
			route, n = "/batch", batchSize
		}
		slices.add(c.iv.end, n)
		targets[c.target].spans.add("client "+route, c.seq, c.iv.start, c.iv.end)
	}
	out.rates = slices.rates()
	return out
}

// sameResults compares a response with the reference for the same
// body. A /search response must be byte-identical. A /batch response
// must be byte-identical up to its aggregate stats: on a traced index
// those carry stage times, which differ from run to run.
func sameResults(got, want []byte, batch bool) bool {
	if batch {
		marker := []byte(`],"batch":`)
		if i := bytes.LastIndex(got, marker); i >= 0 {
			got = got[:i]
		}
		if i := bytes.LastIndex(want, marker); i >= 0 {
			want = want[:i]
		}
	}
	return bytes.Equal(got, want)
}

// latencies splits a loop's round trips by route, in microseconds.
func (l httpLoop) latencies() (search, batch []float64) {
	for _, c := range l.calls {
		us := float64(c.iv.dur()) / float64(time.Microsecond)
		if c.batch {
			batch = append(batch, us)
		} else {
			search = append(search, us)
		}
	}
	return search, batch
}

// netOverhead is the median of client round trip minus ServeHTTP time
// over /search requests: loopback, HTTP framing and client work.
func netOverhead(l httpLoop, th *timedHandler) float64 {
	var xs []float64
	for _, c := range l.calls {
		if c.batch {
			continue
		}
		if iv, ok := th.served(c.seq); ok {
			xs = append(xs, float64(c.iv.dur()-iv.dur())/float64(time.Microsecond))
		}
	}
	return median(xs)
}

// requestSpans lists the ServeHTTP intervals of a loop's requests.
func requestSpans(l httpLoop, th *timedHandler, spans *spanLog) []routeSpan {
	out := make([]routeSpan, 0, len(l.calls))
	for _, c := range l.calls {
		iv, ok := th.served(c.seq)
		if !ok {
			continue
		}
		out = append(out, routeSpan{batch: c.batch, iv: iv})
		route := "ServeHTTP /search"
		if c.batch {
			route = "ServeHTTP /batch"
		}
		spans.add(route, c.seq, iv.start, iv.end)
	}
	return out
}

// probeServer measures the server layer on a traced index: a short
// closed loop of the http-d32 traffic mix at this workload's query
// shape. Direct workloads take their server and network layers from
// it; mixed-rw, which sends no /batch, takes its batch self time.
func probeServer(cfg runConfig, tix *gqr.Index, s shape, c *corpus, vecOf func(int) []float32, lib []answer, res *result, spans *spanLog) (probe, error) {
	srv, err := startServer(tix)
	if err != nil {
		return probe{}, err
	}
	defer srv.stop()
	b, err := newBodies(c, s.budget, cfg.seed)
	if err != nil {
		return probe{}, err
	}
	cl := newClient(srv.url, httpConns)
	defer cl.close()
	ref := httpReference(cl, b, c, vecOf, lib, res)
	m0 := readMem()
	l := closedLoopHTTP([]httpTarget{{cl, ref, spans}}, b, probeWindow, 0, cfg.seed, true, res)
	m1 := readMem()
	p := probe{
		self:         serverSelfTimes(tix, requestSpans(l, srv.timed, spans)),
		allocsPerReq: float64(m1.mallocs-m0.mallocs) / float64(len(l.calls)),
		netUs:        netOverhead(l, srv.timed),
	}
	p.self.note(res, "HTTP probe", len(l.calls))
	res.note("HTTP probe: %v closed loop of the http-d32 mix on the traced index, %d requests", probeWindow, len(l.calls))
	return p, nil
}

// probe is what an HTTP probe measured.
type probe struct {
	self         serverSelf
	allocsPerReq float64 // process-wide, client share included
	netUs        float64
}

// runHTTP is the http-d32 workload: two keep-alive connections in a
// closed loop, seven /search requests for every /batch of 16.
func runHTTP(cfg runConfig) (*result, error) {
	s := httpD32
	res := newResult()
	c := generate(cfg.seed, s.n, s.pool, 0, s.dim)
	gt, err := groundTruth(cfg.cacheDir, s.name, cfg.seed, c)
	if err != nil {
		return nil, err
	}
	b, err := newBodies(c, s.budget, cfg.seed)
	if err != nil {
		return nil, err
	}
	h, err := httpUntraced(cfg, s, c, b, res)
	if err != nil {
		return nil, err
	}
	defer h.close()
	res.setE2E("recall_at_10", meanRecall(h.ref.answers, gt), "ratio")
	search, batch := h.loop.latencies()
	setLatency(res, "search", summarize(search))
	bd := summarize(batch)
	res.setE2E("batch_p50_us", bd.p50, "us")
	res.note("batch latency: %s", bd.note())
	res.setE2E("qps", median(h.loop.rates), "1/s")
	res.note("qps: median of %d slice rates %s", len(h.loop.rates), summarize(append([]float64(nil), h.loop.rates...)).quartiles())
	if cfg.trace {
		if err := tracedHTTP(cfg, s, c, b, h, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// httpRun is the untraced part of http-d32: the index, server and
// client of the last round, the reference responses, the load over
// every round and the counters around the last round's load.
type httpRun struct {
	ix           *gqr.Index
	srv          *benchServer
	cl           *client
	ref          *httpRef
	loop, last   httpLoop
	st0, st1     gqr.Stats
	mem0, mem1   memCounters
	prom0, prom1 map[string]float64 // traced runs only
}

func (h *httpRun) close() {
	h.cl.close()
	h.srv.stop()
}

// httpUntraced runs http-d32's rounds: each builds the index and
// starts the server afresh (one set-up sample) and then carries an
// equal share of the window's load. A traced run runs one round and
// scrapes /metrics around its load.
func httpUntraced(cfg runConfig, s shape, c *corpus, b *bodies, res *result) (*httpRun, error) {
	rounds := s.rounds(cfg)
	h := &httpRun{}
	fail := func(err error) (*httpRun, error) {
		if h.srv != nil {
			h.close()
		}
		return nil, err
	}
	var setups []float64
	for r := 0; r < rounds; r++ {
		if h.srv != nil {
			h.close()
			h.ix, h.srv = nil, nil
		}
		runtime.GC()
		start := time.Now()
		ix, err := gqr.Build(c.base, s.dim, s.buildOptions()...)
		if err != nil {
			return fail(fmt.Errorf("build: %w", err))
		}
		srv, err := startServer(ix)
		if err != nil {
			return fail(err)
		}
		setups = append(setups, time.Since(start).Seconds())
		h.ix, h.srv, h.cl = ix, srv, newClient(srv.url, httpConns)
		if r == 0 {
			res.setE2E("heap_mb", heapMB(), "MB")
			h.ref = httpReference(h.cl, b, c, c.baseOf, nil, res)
		}
		if cfg.trace {
			if h.prom0, err = scrape(srv.url); err != nil {
				return fail(err)
			}
		}
		h.st0, h.mem0 = ix.Stats(), readMem()
		h.last = closedLoopHTTP([]httpTarget{{cl: h.cl, ref: h.ref}}, b, cfg.window()/time.Duration(rounds), 0, cfg.seed+int64(r), false, res)
		h.st1, h.mem1 = ix.Stats(), readMem()
		if cfg.trace {
			if h.prom1, err = scrape(srv.url); err != nil {
				return fail(err)
			}
		}
		h.loop.add(h.last)
	}
	setSetup(res, setups)
	return h, nil
}

// tracedHTTP adds the per-layer metrics of http-d32 to the untraced
// run h. The untraced load gives allocations, network overhead and the
// work counters (from /metrics). A traced server gives the stage split
// (from its /metrics) and the server's self time (from the flight
// recorder); the clients alternate between it and the untraced server
// over one window, so that the difference of their latencies is the
// tracing overhead and not host drift. /batch requests are serialized
// in that window so that batches can be attributed.
func tracedHTTP(cfg runConfig, s shape, c *corpus, b *bodies, h *httpRun, res *result) error {
	setBuildLayers(res, h.ix.Stats())
	res.setLayer("gqr.allocs_per_query", allocsPerQuery(h.ix, s, c), "count")
	lu := h.last
	res.setLayer("server.allocs_per_req", float64(h.mem1.mallocs-h.mem0.mallocs)/float64(len(lu.calls)), "count")
	res.setLayer("net.overhead_us", netOverhead(lu, h.srv.timed), "us")
	res.setLayer("runtime.gc_cycles_per_kq", perK(float64(h.mem1.numGC-h.mem0.numGC), lu.queries), "1/kq")
	res.setLayer("gqr.method_rebuilds_per_kq", perK(float64(h.st1.MethodRebuilds-h.st0.MethodRebuilds), lu.queries), "1/kq")
	setLifecycleLayers(res, h.st0, h.st1)
	setWorkLayers(res, s, workFromProm(h.prom0, h.prom1))
	res.setLayer("wal.wchar_per_user_byte", 0, "ratio")
	res.setLayer("wal.disk_bytes_per_user_byte", 0, "ratio")
	var gaps []float64
	for _, c := range lu.calls {
		gaps = append(gaps, float64(c.gap)/float64(time.Microsecond))
	}
	late := summarize(gaps)
	res.setLayer("driver.late_p50_us", late.p50, "us")
	res.setLayer("driver.late_p99_us", late.tail, "us")
	res.note("driver lateness (closed loop: time between a reply and the next request): %s", late.note())

	tix, err := gqr.Build(c.base, s.dim, s.buildOptions(tracedOptions()...)...)
	if err != nil {
		return fmt.Errorf("traced build: %w", err)
	}
	tsrv, err := startServer(tix)
	if err != nil {
		return err
	}
	defer tsrv.stop()
	tcl := newClient(tsrv.url, httpConns)
	defer tcl.close()
	tref := httpReference(tcl, b, c, c.baseOf, h.ref.answers, res)
	for i := range h.ref.batch {
		if !sameResults(h.ref.batch[i], tref.batch[i], true) {
			res.problem("/batch %d: traced server answers differently", i)
		}
	}
	q0, err := scrape(tsrv.url)
	if err != nil {
		return err
	}
	spans := &spanLog{}
	targets := []httpTarget{{cl: h.cl, ref: h.ref}, {cl: tcl, ref: tref, spans: spans}}
	alt := closedLoopHTTP(targets, b, cfg.window(), altBlock, cfg.seed+1, true, res)
	q1, err := scrape(tsrv.url)
	if err != nil {
		return err
	}
	untraced, _ := alt.of(0).latencies()
	lt := alt.of(1)
	traced, _ := lt.latencies()
	setStageLayersFromProm(res, q0, q1)
	ss := serverSelfTimes(tix, requestSpans(lt, tsrv.timed, spans))
	ss.setRingLayers(res)
	res.setLayer("server.batch_self_us", median(ss.batch), "us")
	ss.note(res, "traced window", len(lt.calls))
	setOverhead(res, "/search", summarize(untraced), summarize(traced))
	writeTraces(cfg, res, tix, spans)
	return nil
}
