package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, got  float64
		highestGot float64
	}{
		{n: 10000, want: 99, got: 99, highestGot: 99.9},
		{n: 1000, want: 99, got: 99, highestGot: 99},
		{n: 999, want: 99, got: 90, highestGot: 90},
		{n: 100, want: 99, got: 90, highestGot: 90},
		{n: 99, want: 99, got: 50, highestGot: 50},
		{n: 20, want: 99, got: 50, highestGot: 50},
		{n: 19, want: 99, got: 0, highestGot: 0},
		{n: 0, want: 99, got: 0, highestGot: 0},
	} {
		if got := tailPercentile(tc.n, tc.want); got != tc.got {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", tc.n, tc.want, got, tc.got)
		}
		if got := highestTail(tc.n); got != tc.highestGot {
			t.Errorf("highestTail(%d) = %g, want %g", tc.n, got, tc.highestGot)
		}
		if p := tailPercentile(tc.n, tc.want); p > 0 && tc.n-nearestRank(tc.n, p) < minTail {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond it", tc.n, p, minTail)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestSummarizeStatesSampleCountAndTail(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // unsorted on purpose
	}
	d := summarize(xs)
	if d.n != 500 || d.tailP != 90 || d.tail != 449 || d.p50 != 249 {
		t.Fatalf("summarize = %+v, want n=500, tail p90=449, p50=249", d)
	}
	if note := d.note(); !strings.Contains(note, "n=500") || !strings.Contains(note, "tail=p90") {
		t.Errorf("note %q must state the sample count and the percentile used", note)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if xs[0] != 4 {
		t.Error("median modified its input")
	}
}

func TestRecallAt(t *testing.T) {
	truth := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, tc := range []struct {
		got  []int
		want float64
	}{
		{[]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1},
		{[]int{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 1}, // order does not matter
		{[]int{1, 2, 3, 4, 5, 96, 97, 98, 99, 100}, 0.5},
		{[]int{11, 12, 13}, 0},                           // the 11th true neighbor is outside top-10
		{[]int{1, 2, 3}, 0.3},                            // a short answer misses the rest
		{[]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 10}, 0.9}, // only the first k count
	} {
		if got := recallAt(tc.got, truth, 10); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("recallAt(%v) = %g, want %g", tc.got, got, tc.want)
		}
	}
}

func TestFailedFrac(t *testing.T) {
	for _, tc := range []struct {
		failed, attempted int
		want              float64
	}{{0, 10, 0}, {3, 12, 0.25}, {5, 5, 1}, {0, 0, 1}} {
		if got := failedFrac(tc.failed, tc.attempted); got != tc.want {
			t.Errorf("failedFrac(%d, %d) = %g, want %g", tc.failed, tc.attempted, got, tc.want)
		}
	}
}

// TestDueTimeAccountingChargesStalls replays one server that stalls on
// its first request while requests keep coming due every millisecond.
// Timed from the due time, every request queued behind the stall pays
// for it; timed from the moment the server took it up, the stall would
// show on the first request only.
func TestDueTimeAccountingChargesStalls(t *testing.T) {
	const ms = time.Millisecond
	var ops []opTiming
	var free time.Duration // when the server can take the next request
	for i := 0; i < 10; i++ {
		due := time.Duration(i) * ms
		service := 100 * time.Microsecond
		if i == 0 {
			service = 5 * ms
		}
		start := max(due, free)
		free = start + service
		ops = append(ops, opTiming{due: due, sent: due, done: free})
	}
	wantFromDue := []time.Duration{5000, 4100, 3200, 2300, 1400, 500, 100, 100, 100, 100}
	for i, o := range ops {
		if got := o.latencyFromDue(); got != wantFromDue[i]*time.Microsecond {
			t.Errorf("op %d: latency from due %v, want %v", i, got, wantFromDue[i]*time.Microsecond)
		}
		if o.lateness() != 0 {
			t.Errorf("op %d: generator lateness %v, want 0", i, o.lateness())
		}
	}
	d := summarize(micros([]time.Duration{ops[1].latencyFromDue(), ops[9].latencyFromDue()}))
	if d.p50 != 100 || d.mean != 2100 {
		t.Errorf("summary %+v", d)
	}
}

func TestLatenessIsCountedSeparately(t *testing.T) {
	o := opTiming{due: 1 * time.Millisecond, sent: 3 * time.Millisecond, done: 4 * time.Millisecond}
	if o.lateness() != 2*time.Millisecond {
		t.Errorf("lateness %v, want 2ms", o.lateness())
	}
	// A late generator never makes the latency look better.
	if o.latencyFromDue() != 3*time.Millisecond {
		t.Errorf("latency from due %v, want 3ms", o.latencyFromDue())
	}
}

func TestScheduleIsSeededAndNeverRepeatsATarget(t *testing.T) {
	total := 10 * time.Second
	a, na := schedule(7, total, 20000, mixedRW.pool)
	b, nb := schedule(7, total, 20000, mixedRW.pool)
	if na != nb || len(a) != len(b) {
		t.Fatal("same seed gave different schedules")
	}
	for i := range a {
		if a[i].due != b[i].due || a[i].kind != b[i].kind || a[i].q != b[i].q || a[i].id != b[i].id || a[i].vec != b[i].vec {
			t.Fatalf("op %d differs between runs with one seed", i)
		}
	}
	c, _ := schedule(8, total, 20000, mixedRW.pool)
	if len(c) == len(a) && c[0].due == a[0].due {
		t.Error("different seeds gave the same schedule")
	}
	counts := map[opKind]int{}
	targets := map[int]bool{}
	for i, o := range a {
		if i > 0 && o.due < a[i-1].due {
			t.Fatalf("op %d is out of due order", i)
		}
		counts[o.kind]++
		if o.kind == opDelete || o.kind == opUpdate {
			if targets[o.id] {
				t.Fatalf("id %d targeted twice", o.id)
			}
			targets[o.id] = true
		}
	}
	if s := float64(counts[opSearch]) / total.Seconds(); s < 450 || s > 550 {
		t.Errorf("search rate %g/s, want about %g", s, searchRate)
	}
	writes := counts[opAdd] + counts[opDelete] + counts[opUpdate]
	if w := float64(writes) / total.Seconds(); w < 80 || w > 120 {
		t.Errorf("write rate %g/s, want about %g", w, writeRate)
	}
	if f := float64(counts[opAdd]) / float64(writes); f < 0.7 || f > 0.9 {
		t.Errorf("add share %g, want about 0.8", f)
	}
	if na != counts[opAdd]+counts[opUpdate] {
		t.Errorf("%d spare rows for %d adds and updates", na, counts[opAdd]+counts[opUpdate])
	}
}

func TestCheckAnswer(t *testing.T) {
	rows := map[int][]float32{1: {0, 0}, 2: {3, 4}, 3: {6, 8}}
	vecOf := func(id int) []float32 { return rows[id] }
	q := []float32{0, 0}
	good := answer{ids: []int{1, 2, 3}, dists: []float64{0, 5, 10}}
	if err := checkAnswer(q, good, 3, vecOf); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for name, a := range map[string]answer{
		"descending":   {ids: []int{2, 1, 3}, dists: []float64{5, 0, 10}},
		"wrong dist":   {ids: []int{1, 2, 3}, dists: []float64{0, 5.1, 10}},
		"unknown id":   {ids: []int{1, 2, 9}, dists: []float64{0, 5, 10}},
		"repeated id":  {ids: []int{1, 2, 2}, dists: []float64{0, 5, 5}},
		"short answer": {ids: []int{1, 2}, dists: []float64{0, 5}},
	} {
		if err := checkAnswer(q, a, 3, vecOf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBruteForceMatchesFullSort(t *testing.T) {
	c := generate(3, 2000, 16, 0, 8)
	gt := bruteForce(c.base, c.dim, nil, c.pool)
	for qi, row := range gt {
		q := c.query(qi)
		for j := 1; j < len(row); j++ {
			if sqDist(q, c.baseVec(int(row[j]))) < sqDist(q, c.baseVec(int(row[j-1]))) {
				t.Fatalf("query %d: ground truth not ascending", qi)
			}
		}
		kth := sqDist(q, c.baseVec(int(row[k-1])))
		closer := 0
		for i := 0; i < c.n(); i++ {
			if sqDist(q, c.baseVec(i)) < kth {
				closer++
			}
		}
		if closer > k-1 {
			t.Fatalf("query %d: %d rows closer than the 10th neighbor", qi, closer)
		}
	}
}

func TestSameResultsIgnoresBatchStatsOnly(t *testing.T) {
	a := []byte(`{"results":[{"neighbors":[{"id":1,"distance":2}]}],"batch":{"answered":1,"stats":{"retrievalTime":5}}}`)
	b := []byte(`{"results":[{"neighbors":[{"id":1,"distance":2}]}],"batch":{"answered":1,"stats":{"retrievalTime":7}}}`)
	c := []byte(`{"results":[{"neighbors":[{"id":3,"distance":2}]}],"batch":{"answered":1,"stats":{"retrievalTime":5}}}`)
	if !sameResults(a, b, true) {
		t.Error("batch responses differing only in stats compared unequal")
	}
	if sameResults(a, c, true) {
		t.Error("batch responses with different neighbors compared equal")
	}
	if sameResults(a, b, false) {
		t.Error("a /search response must be byte-identical")
	}
}

func TestParseProm(t *testing.T) {
	p := parseProm([]byte("# HELP x y\n# TYPE x counter\nx_total 12\nh_sum{stage=\"probe\"} 0.5\nh_count{stage=\"probe\"} 4\n"))
	if p["x_total"] != 12 || p[`h_sum{stage="probe"}`] != 0.5 || p[`h_count{stage="probe"}`] != 4 {
		t.Errorf("parseProm = %v", p)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the final JSON
// line carries in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", got, perLayer)
	}
	for _, w := range names(spec.Workloads) {
		if workloads[w] == nil {
			t.Errorf("BENCHMARK.json workload %s has no run function", w)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
}

func TestRateSlicesMedianIgnoresOneStall(t *testing.T) {
	start := time.Unix(0, 0)
	r := newRateSlices(start, 5*time.Second+100*time.Millisecond)
	if len(r.counts) != 5 {
		t.Fatalf("%d slices for 5.1 s, want 5", len(r.counts))
	}
	// 100 completions per slice, except the third slice, which stalls.
	for s := 0; s < 5; s++ {
		n := 100
		if s == 2 {
			n = 10
		}
		for i := 0; i < n; i++ {
			r.add(start.Add(time.Duration(s)*r.width+time.Duration(i)*time.Millisecond), 1)
		}
	}
	r.add(start.Add(time.Minute), 2) // in flight when the window closed
	rates := r.rates()
	want := 100 / r.width.Seconds()
	if got := median(rates); math.Abs(got-want) > 1e-9 {
		t.Errorf("median rate %g, want %g (rates %v)", got, want, rates)
	}
	if got := rates[4]; math.Abs(got-102/r.width.Seconds()) > 1e-9 {
		t.Errorf("last slice rate %g: a late completion must count in the last slice", got)
	}
	if one := newRateSlices(start, 200*time.Millisecond); len(one.counts) != 1 {
		t.Errorf("a window shorter than a slice must still have one slice")
	}
}
