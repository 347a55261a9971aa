package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gqr"
	"gqr/internal/trace"
)

// work is the per-query mean of the search work counters.
type work struct {
	generated, probed, candidates, abandoned, filtered, adc, reranked float64
}

// workOf averages summed SearchStats over n queries.
func workOf(st gqr.SearchStats, n int) work {
	if n == 0 {
		return work{}
	}
	f := float64(n)
	return work{
		generated:  float64(st.BucketsGenerated) / f,
		probed:     float64(st.BucketsProbed) / f,
		candidates: float64(st.Candidates) / f,
		abandoned:  float64(st.EarlyAbandoned) / f,
		filtered:   float64(st.Filtered) / f,
		adc:        float64(st.ADCScored) / f,
		reranked:   float64(st.Reranked) / f,
	}
}

// workFromProm averages the server's search counters between two
// /metrics scrapes. The server exports no filtered-id counter; that one
// comes from the flight recorder where a run has one.
func workFromProm(before, after map[string]float64) work {
	d := func(name string) float64 { return after[name] - before[name] }
	n := d("gqr_search_queries_total")
	if n == 0 {
		return work{}
	}
	return work{
		generated:  d("gqr_search_buckets_generated_total") / n,
		probed:     d("gqr_search_buckets_probed_total") / n,
		candidates: d("gqr_search_candidates_total") / n,
		abandoned:  d("gqr_search_early_abandoned_total") / n,
		adc:        d("gqr_search_adc_scored_total") / n,
		reranked:   d("gqr_search_reranked_total") / n,
	}
}

// setWorkLayers records the per-query work counters and their ratios.
func setWorkLayers(res *result, s shape, w work) {
	res.setLayer("query.buckets_generated", w.generated, "count")
	res.setLayer("query.buckets_probed", w.probed, "count")
	res.setLayer("query.candidates", w.candidates, "count")
	res.setLayer("query.probe_yield", ratio(w.probed, w.generated), "ratio")
	res.setLayer("query.budget_overshoot", ratio(w.candidates, float64(s.budget)), "ratio")
	res.setLayer("index.filtered", w.filtered, "count")
	res.setLayer("vecmath.abandon_ratio", ratio(w.abandoned, w.candidates), "ratio")
	res.setLayer("quantization.adc_scored", w.adc, "count")
	res.setLayer("quantization.reranked", w.reranked, "count")
}

// setLifecycleLayers records seals and merges during a window and the
// segment count at its end.
func setLifecycleLayers(res *result, before, after gqr.Stats) {
	res.setLayer("index.seals", float64(after.Seals-before.Seals), "count")
	res.setLayer("index.merges", float64(after.Merges-before.Merges), "count")
	res.setLayer("index.segments", float64(after.Segments), "count")
}

// stageLayer maps a pipeline stage to the per-layer metric of its time.
// Stages without a metric in the JSON set are still printed.
var stageLayer = map[trace.Stage]string{
	trace.StageSnapshot:   "gqr.snapshot_us",
	trace.StagePreprocess: "gqr.preprocess_us",
	trace.StageSequence:   "query.sequence_us",
	trace.StageProbe:      "query.probe_us",
	trace.StageGather:     "index.gather_us",
	trace.StageRerank:     "quantization.rerank_us",
	trace.StageEvaluate:   "vecmath.evaluate_us",
	trace.StageFinalize:   "query.finalize_us",
}

// setStageLayers records per-query mean stage times in microseconds.
func setStageLayers(res *result, mean [trace.NumStages]float64) {
	for st, name := range stageLayer {
		res.setLayer(name, mean[st], "us")
	}
}

// stageAgg is a flight-recorder observer that sums the exact per-stage
// durations of every finished query trace.
type stageAgg struct {
	mu       sync.Mutex
	n        int
	dur      [trace.NumStages]time.Duration
	snapshot []float64 // per query, microseconds
}

func (a *stageAgg) observe(tr *trace.Trace) {
	if tr.Method == "batch" {
		return // a batch's shared preprocessing, not a query
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	for i, d := range tr.StageDur {
		a.dur[i] += d
	}
	a.snapshot = append(a.snapshot, float64(tr.StageDur[trace.StageSnapshot])/float64(time.Microsecond))
}

func (a *stageAgg) setLayers(res *result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var mean [trace.NumStages]float64
	for i, d := range a.dur {
		mean[i] = ratio(float64(d)/float64(time.Microsecond), float64(a.n))
	}
	setStageLayers(res, mean)
	sd := summarize(a.snapshot)
	res.setLayer("gqr.snapshot_p99_us", sd.tail, "us")
	res.note("traced queries: %d; snapshot stage %s", a.n, sd.note())
}

// setStageLayersFromProm records per-query mean stage times from the
// server's gqr_search_stage_seconds histograms between two scrapes.
// Every query trace, /search or /batch member, records a preprocess
// stage, so its count is the number of traced queries.
func setStageLayersFromProm(res *result, before, after map[string]float64) {
	const fam = "gqr_search_stage_seconds"
	series := func(suffix string, st trace.Stage) float64 {
		key := fmt.Sprintf(`%s_%s{stage="%s"}`, fam, suffix, st)
		return after[key] - before[key]
	}
	n := series("count", trace.StagePreprocess)
	var mean [trace.NumStages]float64
	for i := range mean {
		mean[i] = ratio(series("sum", trace.Stage(i))*1e6, n)
	}
	setStageLayers(res, mean)
	res.note("traced queries (from /metrics): %.0f", n)
}

// routeSpan is one request's ServeHTTP interval.
type routeSpan struct {
	batch bool
	iv    interval
}

// libSpan is one flight-recorder trace as an interval.
type libSpan struct {
	iv     interval
	total  time.Duration
	search bool // a /search query: it acquired its own snapshot
	plan   bool // a batch's shared preprocessing record
	member bool // a query inside a batch
}

// serverSelf is what the flight recorder says about the requests of a
// traced HTTP window.
type serverSelf struct {
	search, batch []float64 // self time per attributed request, microseconds
	snapshot      dist      // snapshot stage per /search query, microseconds
	filtered      float64   // filtered ids per /search query
}

// serverSelfTimes attributes flight-recorder traces to the requests
// whose ServeHTTP interval holds them. A request's self time is its
// ServeHTTP time minus its in-library time. A /search request holds
// exactly one query trace. A /batch request holds one plan record and
// its member queries; its in-library time runs from the plan's start
// to the last member's end, so batches must not overlap (see
// closedLoopHTTP). Requests whose traces cannot be told apart from
// another request's (a second /search trace inside the interval) are
// skipped, and so are requests older than the recorder's ring.
func serverSelfTimes(tix *gqr.Index, reqs []routeSpan) serverSelf {
	var libs []libSpan
	var out serverSelf
	var snap []float64
	searches := 0
	for _, tr := range tix.TraceRecorder().Traces() {
		ls := libSpan{total: tr.Total}
		if tr.Method == "batch" {
			// Begin is taken after the plan ran; Total is the plan's length.
			ls.plan = true
			ls.iv = interval{tr.Begin.Add(-tr.Total), tr.Begin}
		} else {
			ls.iv = interval{tr.Begin, tr.Begin.Add(tr.Total)}
			ls.search = tr.StageCount[trace.StageSnapshot] > 0
			ls.member = !ls.search
		}
		if ls.search {
			snap = append(snap, float64(tr.StageDur[trace.StageSnapshot])/float64(time.Microsecond))
			out.filtered += float64(tr.Totals.Filtered)
			searches++
		}
		libs = append(libs, ls)
	}
	out.snapshot = summarize(snap)
	out.filtered = ratio(out.filtered, float64(searches))
	if len(libs) == 0 {
		return out
	}
	sort.Slice(libs, func(i, j int) bool { return libs[i].iv.start.Before(libs[j].iv.start) })
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].iv.start.Before(reqs[j].iv.start) })
	// inside returns the traces that start within iv.
	inside := func(iv interval) []libSpan {
		lo := sort.Search(len(libs), func(i int) bool { return !libs[i].iv.start.Before(iv.start) })
		hi := sort.Search(len(libs), func(i int) bool { return libs[i].iv.start.After(iv.end) })
		return libs[lo:hi]
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, r := range reqs {
		if r.iv.start.Before(libs[0].iv.start) {
			continue
		}
		if !r.batch {
			var lib time.Duration
			count := 0
			for _, l := range inside(r.iv) {
				if l.search && !l.iv.end.After(r.iv.end) {
					count++
					lib = l.total
				}
			}
			if count == 1 {
				out.search = append(out.search, us(r.iv.dur()-lib))
			}
			continue
		}
		var plan interval
		plans := 0
		for _, l := range inside(r.iv) {
			if l.plan {
				plans++
				plan = l.iv
			}
		}
		if plans != 1 {
			continue
		}
		var last time.Time
		for _, l := range inside(interval{plan.end, r.iv.end}) {
			if l.member && !l.iv.end.After(r.iv.end) && l.iv.end.After(last) {
				last = l.iv.end
			}
		}
		if !last.IsZero() {
			out.batch = append(out.batch, us(r.iv.dur()-last.Sub(plan.start)))
		}
	}
	return out
}

func (s serverSelf) note(res *result, label string, requests int) {
	res.note("%s: server self time from the flight recorder for /search n=%d, /batch n=%d (of %d requests); snapshot %s",
		label, len(s.search), len(s.batch), requests, s.snapshot.note())
}

// setRingLayers records the layers a traced HTTP window reads from the
// flight recorder: server self time, the snapshot stage and filtering.
func (s serverSelf) setRingLayers(res *result) {
	res.setLayer("server.self_us", median(s.search), "us")
	res.setLayer("gqr.snapshot_us", s.snapshot.mean, "us")
	res.setLayer("gqr.snapshot_p99_us", s.snapshot.tail, "us")
	res.setLayer("index.filtered", s.filtered, "count")
}

// parseProm reads Prometheus text exposition into series → value.
func parseProm(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// procWchar returns the process's wchar from /proc/self/io: bytes
// passed to write-family system calls, sockets included.
func procWchar() (int64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("read /proc/self/io: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io has no wchar line")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// spanLog keeps the benchmark's own spans around calls into each layer:
// a client round trip and the ServeHTTP call it caused share an id.
// They stay in memory and are written out when the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	Name  string  `json:"name"`
	ID    int64   `json:"id"` // shared by the spans of one request
	Start float64 `json:"startUs"`
	Dur   float64 `json:"durUs"`
}

// maxSpans bounds the spans one run keeps.
const maxSpans = 200000

// add records one span; it is a no-op on a nil log.
func (l *spanLog) add(name string, id int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		return
	}
	l.spans = append(l.spans, span{
		Name: name, ID: id,
		Start: float64(start.UnixNano()) / 1e3, Dur: float64(end.Sub(start)) / 1e3,
	})
}

// writeTraces writes the benchmark's spans and the flight recorder's
// retained query traces (Chrome trace-event format) under the cache
// directory, and notes where.
func writeTraces(cfg runConfig, res *result, tix *gqr.Index, spans *spanLog) {
	dir := filepath.Join(cfg.cacheDir, "traces")
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.note("traces not written: %v", err)
		return
	}
	spans.mu.Lock()
	b, err := json.Marshal(spans.spans)
	spans.mu.Unlock()
	if err == nil {
		err = os.WriteFile(base+"-spans.json", b, 0o644)
	}
	if err != nil {
		res.note("spans not written: %v", err)
	}
	traces := tix.TraceRecorder().Traces()
	if len(traces) > 256 {
		traces = traces[:256] // newest first; a sample is enough to read
	}
	var buf bytes.Buffer
	err = trace.WriteChrome(&buf, traces...)
	if err == nil {
		err = os.WriteFile(base+"-library.json", buf.Bytes(), 0o644)
	}
	if err != nil {
		res.note("library traces not written: %v", err)
	}
	res.note("spans written to %s-{spans,library}.json", base)
}
