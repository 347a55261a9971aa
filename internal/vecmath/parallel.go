package vecmath

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Deterministic parallel kernels for the build pipeline. Every function
// here obeys one discipline: each output element is owned by exactly one
// worker and is computed with the same inner-loop accumulation order as
// the serial kernel, so results are bit-for-bit identical at any worker
// count (including 1). Worker partitions may change with procs; element
// ownership and per-element evaluation order never do.

// Procs normalizes a parallelism request: values <= 0 mean
// runtime.GOMAXPROCS(0).
func Procs(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// minParallelWork is the smallest flop count worth fanning out over
// goroutines; below it the spawn/join overhead dominates. Kernels gate
// on their estimated work, not their row count, so tall-thin products
// (few output rows, huge inner dimension) still parallelize.
const minParallelWork = 1 << 15

// ParallelRanges splits [0,total) into at most procs contiguous ranges
// and runs fn on each, concurrently when procs > 1. fn must only write
// state owned by its range. It is the partitioning primitive of every
// parallel build kernel; callers rely on ranges being contiguous and
// covering [0,total) exactly once.
func ParallelRanges(total, procs int, fn func(lo, hi int)) {
	procs = Procs(procs)
	if procs > total {
		procs = total
	}
	if total <= 0 {
		return
	}
	if procs <= 1 {
		fn(0, total)
		return
	}
	var wg sync.WaitGroup
	chunk := (total + procs - 1) / procs
	for lo := 0; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelChunks splits [0,total) into fixed-size chunks that up to
// procs workers pull from a shared counter. Unlike ParallelRanges the
// chunk→worker assignment is scheduling-dependent, so fn must write
// only state owned by its chunk AND compute each element independently
// of which worker runs it — under that discipline the output is still
// bit-for-bit deterministic, while stragglers (e.g. expensive hash
// evaluations) self-balance.
func ParallelChunks(total, chunk, procs int, fn func(lo, hi int)) {
	procs = Procs(procs)
	if total <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	nchunks := (total + chunk - 1) / chunk
	if procs > nchunks {
		procs = nchunks
	}
	if procs <= 1 {
		fn(0, total)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > total {
					hi = total
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// ParallelWeighted splits [0,total) into at most procs contiguous ranges
// of roughly equal total weight (weight(i) >= 0 is the cost of element
// i) and runs fn on each concurrently. Used where per-row cost is
// non-uniform, e.g. the triangular covariance update.
func ParallelWeighted(total, procs int, weight func(i int) float64, fn func(lo, hi int)) {
	procs = Procs(procs)
	if procs > total {
		procs = total
	}
	if total <= 0 {
		return
	}
	if procs <= 1 {
		fn(0, total)
		return
	}
	var sum float64
	for i := 0; i < total; i++ {
		sum += weight(i)
	}
	if sum <= 0 {
		ParallelRanges(total, procs, fn)
		return
	}
	var wg sync.WaitGroup
	target := sum / float64(procs)
	lo, acc := 0, 0.0
	for i := 0; i < total; i++ {
		acc += weight(i)
		last := i == total-1
		if acc >= target || last {
			hi := i + 1
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fn(lo, hi)
			}(lo, hi)
			lo, acc = hi, 0
		}
	}
	wg.Wait()
}

// MulP returns the matrix product a·b computed by up to procs workers.
// The output rows are partitioned into contiguous panels, each owned by
// exactly one worker and computed by the row kernel mulRows, so the
// result is bit-for-bit identical to Mul at any parallelism.
func MulP(a, b *Mat, procs int) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("vecmath: MulP shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Rows, b.Cols)
	if a.Rows*a.Cols*b.Cols < minParallelWork {
		procs = 1
	}
	ParallelRanges(a.Rows, procs, func(lo, hi int) {
		mulRows(a, b, out, lo, hi, false)
	})
	return out
}

// MulBatch32 projects the n×d float32 block through the m×d matrix h
// after subtracting mean (nil means no centering): out is n×m with
// out[i][r] = h_rᵀ·(x_i − mean). Rows are partitioned across up to
// procs workers, each output row owned by one worker, so the result is
// bit-for-bit independent of procs. This is the batched training-side
// companion of MulVec32.
func MulBatch32(data []float32, n, d int, h *Mat, mean []float64, procs int) *Mat {
	if h.Cols != d || len(data) != n*d {
		panic(fmt.Sprintf("vecmath: MulBatch32 shape mismatch %dx%d block · %dx%d", n, d, h.Rows, h.Cols))
	}
	if mean != nil && len(mean) != d {
		panic(fmt.Sprintf("vecmath: MulBatch32 mean length %d != %d", len(mean), d))
	}
	m := h.Rows
	out := NewMat(n, m)
	if n*d*m < minParallelWork {
		procs = 1
	}
	ParallelRanges(n, procs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := data[i*d : (i+1)*d]
			dst := out.Row(i)
			for r := 0; r < m; r++ {
				hr := h.Row(r)
				var s float64
				if mean == nil {
					for j, hv := range hr {
						s += hv * float64(row[j])
					}
				} else {
					for j, hv := range hr {
						s += hv * (float64(row[j]) - mean[j])
					}
				}
				dst[r] = s
			}
		}
	})
	return out
}

// CovarianceP is Covariance computed by up to procs workers. The d
// output rows are partitioned into contiguous panels weighted by their
// triangular cost (row a updates columns a..d-1); each worker streams
// the data once, re-centering the columns its panel needs, and owns its
// panel's accumulators outright. Every entry (a,b) accumulates its n
// contributions in ascending row order — exactly the serial kernel's
// order — so the result is bit-for-bit identical to Covariance at any
// parallelism.
func CovarianceP(data []float32, n, d, procs int) (cov *Mat, mean []float64) {
	if len(data) != n*d {
		panic(fmt.Sprintf("vecmath: CovarianceP data length %d != %d*%d", len(data), n, d))
	}
	if n < 2 {
		panic("vecmath: CovarianceP needs at least 2 rows")
	}
	mean = make([]float64, d)
	for i := 0; i < n; i++ {
		row := data[i*d : (i+1)*d]
		for j, v := range row {
			mean[j] += float64(v)
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	cov = NewMat(d, d)
	// Only fan out when the triangular update is worth the spawn cost;
	// each worker re-centers its column suffix per data row, so tiny
	// problems are faster on one worker.
	if n*d*(d+1)/2 < minParallelWork {
		procs = 1
	}
	// Row a of the upper triangle costs d-a multiply-adds per data row.
	ParallelWeighted(d, procs, func(a int) float64 { return float64(d - a) }, func(aLo, aHi int) {
		covRows(data, n, d, mean, cov, aLo, aHi)
	})
	inv := 1 / float64(n-1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) * inv
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov, mean
}

// ProcrustesP solves the orthogonal Procrustes problem with up to
// procs workers: it returns the orthogonal matrix R minimizing
// ‖B − A·R‖_F, i.e. R = U·Vᵀ where AᵀB = U·Σ·Vᵀ. Both A and B must be
// n×m with n ≥ m; R is m×m. This is the rotation update of ITQ and
// OPQ. AᵀB is MulTP's transpose-free product and the small SVD between
// the two products is serial, so R is bit-for-bit independent of procs.
func ProcrustesP(a, b *Mat, procs int) *Mat {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("vecmath: ProcrustesP shape mismatch")
	}
	u, _, v := SVD(MulTP(a, b, procs)) // m×m
	return MulP(u, v.T(), procs)
}
