package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer samples is mostly noise.
const minTail = 10

// tailLadder is the set of percentiles a tail metric may fall back to.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest percentile, at most want, drawn
// from tailLadder, that leaves at least minTail of n samples beyond it.
// It returns 0 when n is too small for even the median.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if n > 0 && n-nearestRank(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// highestTail is tailPercentile without a cap: the highest percentile
// the sample count supports at all.
func highestTail(n int) float64 { return tailPercentile(n, 100) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	// The epsilon keeps float error from bumping an exact rank
	// (0.999*1000 is 999.0000000000001) to the next one.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// dist summarizes one timing's samples: the median, the tail
// percentile the sample count supports (capped at p99, as the metric
// names promise), and the count.
type dist struct {
	n      int
	p25    float64
	p50    float64
	p75    float64
	tailP  float64 // percentile actually reported as the tail
	tail   float64
	maxP   float64 // highest percentile the count supports
	maxVal float64
	mean   float64
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{n: len(xs)}
	if len(xs) == 0 {
		return d
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	d.mean = sum / float64(len(xs))
	d.p25 = percentile(xs, 25)
	d.p50 = percentile(xs, 50)
	d.p75 = percentile(xs, 75)
	d.tailP = tailPercentile(len(xs), 99)
	d.tail = percentile(xs, d.tailP)
	d.maxP = highestTail(len(xs))
	d.maxVal = percentile(xs, d.maxP)
	return d
}

// note states the sample count and which percentile stands behind the
// tail figure, as every reported timing must.
func (d dist) note() string {
	return fmt.Sprintf("n=%d tail=p%g highest-supported=p%g(%.1f)", d.n, d.tailP, d.maxP, d.maxVal)
}

// quartiles states the first three quartiles, for a figure that must
// be read against its spread.
func (d dist) quartiles() string {
	return fmt.Sprintf("p25/p50/p75=%.1f/%.1f/%.1f", d.p25, d.p50, d.p75)
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// recallAt returns |got[:k] ∩ truth[:k]| / k.
func recallAt(got []int, truth []int32, k int) float64 {
	if k <= 0 {
		return 0
	}
	if len(truth) > k {
		truth = truth[:k]
	}
	if len(got) > k {
		got = got[:k]
	}
	hit := 0
	for _, g := range got {
		for _, t := range truth {
			if int(t) == g {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(k)
}

// failedFrac is failed over attempted operations; a run that attempted
// nothing has failed entirely.
func failedFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// opTiming is one open-loop operation: when the schedule said to send
// it, when the generator actually handed it off, and when its reply
// arrived, all as offsets from the start of the schedule.
type opTiming struct {
	due, sent, done time.Duration
}

// latencyFromDue is an operation's latency as a user of an open-loop
// system sees it: from when it was due, so a stall that delays later
// requests counts against each of them.
func (o opTiming) latencyFromDue() time.Duration { return o.done - o.due }

// lateness is how late the generator handed the operation off. It says
// whether the run was valid, not how fast the program was.
func (o opTiming) lateness() time.Duration { return o.sent - o.due }

// micros converts durations to float64 microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// sliceWidth is the target length of one throughput slice.
const sliceWidth = time.Second

// rateSlices counts the work completed in equal slices of a window, so
// that throughput can be reported as the median slice rate: a stall or
// a burst of host noise moves one slice, not the figure.
type rateSlices struct {
	start  time.Time
	width  time.Duration
	counts []float64
}

// newRateSlices splits the window of length d that opens at start into
// the whole number of slices closest to d/sliceWidth, at least one.
func newRateSlices(start time.Time, d time.Duration) *rateSlices {
	n := max(1, int((d+sliceWidth/2)/sliceWidth))
	return &rateSlices{start: start, width: d / time.Duration(n), counts: make([]float64, n)}
}

// add counts n units of work completed at t. Work completed after the
// window (the calls in flight when it closed) counts in its last slice.
func (r *rateSlices) add(t time.Time, n int) {
	i := int(t.Sub(r.start) / r.width)
	r.counts[min(max(i, 0), len(r.counts)-1)] += float64(n)
}

// rates returns each slice's work per second.
func (r *rateSlices) rates() []float64 {
	out := make([]float64, len(r.counts))
	for i, c := range r.counts {
		out[i] = c / r.width.Seconds()
	}
	return out
}
