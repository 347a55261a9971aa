package vecmath

import (
	"fmt"
	"math"
)

// Products with a short inner or outer dimension: ITQ's rotation loop
// (V·R and Vᵀ·B with V and B n×bits, R bits×bits), OPQ's X·R and
// XᵀY, and the small factors of a Procrustes update. Each output
// element is one ascending chain of products from +0 — the order of the
// serial ikj loop — so every kernel here, Go or assembly, at any worker
// count, returns the same bits (a NaN's payload aside: DESIGN.md §8c).

// colGroup is how many output columns one call of an AVX2 product
// kernel covers: four float64 vectors, one output column per lane, for
// two output rows at a time.
const colGroup = 16

// tpTile is how many data rows MulTP streams through its output block
// before moving on, so the tile of a and b stays in cache while every
// output row pair the worker owns passes over it.
const tpTile = 128

// laneMask is the source of the AVX2 kernels' column masks: the 16
// int64 lanes starting at laneMask[colGroup-w] are w all-ones lanes,
// then zeros, so a group of w < 16 columns loads and stores nothing
// past its last column.
var laneMask = func() (m [2 * colGroup]int64) {
	for i := 0; i < colGroup; i++ {
		m[i] = -1
	}
	return m
}()

func groupMask(w int) *[colGroup]int64 {
	return (*[colGroup]int64)(laneMask[colGroup-w:])
}

// mulRows sets output rows [lo,hi) of a·b: out[i][j] is the chain
// Σ_k a[i][k]·b[k][j], k ascending, or its sign as signInPlace takes it
// when sign is set. Whatever out held is overwritten. On amd64 with
// AVX2 the sums run in assembly (kernels_amd64.s), two rows and sixteen
// columns per pass, lane = output column; elsewhere mulRowsGeneric
// runs them.
func mulRows(a, b, out *Mat, lo, hi int, sign bool) {
	if !useAVX2 || a.Cols == 0 { // an empty b has no columns to slice into
		mulRowsGeneric(a, b, out, lo, hi)
		if sign {
			signInPlace(out.Data[lo*out.Cols : hi*out.Cols])
		}
		return
	}
	if lo >= hi {
		return
	}
	k, p := a.Cols, b.Cols
	for j := 0; j < p; j += colGroup {
		w := min(colGroup, p-j)
		mulRowsAVX2(a.Data[lo*k:], k, b.Data[j:], p, out.Data[lo*p+j:], p, hi-lo, k, groupMask(w), sign)
	}
}

// mulRowsGeneric is mulRows in Go, in ikj order (stream through b rows
// for cache friendliness): the kernel off amd64 and under the purego
// tag, and the assembly's oracle in tests. The inner loop is
// branchless: the old `av == 0` skip mispredicted on every element of
// dense projection matrices and cost more than the multiply-adds it
// saved (see BenchmarkMul in matrix_test.go). The float64(av*bv)
// conversion forbids FMA fusion, which would round differently.
func mulRowsGeneric(a, b, out *Mat, lo, hi int) {
	clear(out.Data[lo*out.Cols : hi*out.Cols])
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k, av := range ar {
			br := b.Row(k)
			for j, bv := range br {
				or[j] += float64(av * bv)
			}
		}
	}
}

// MulTP returns aᵀ·b without building aᵀ, computed by up to procs
// workers: a is n×m, b is n×p and the result m×p, with element (k, j)
// the chain Σ_i a[i][k]·b[i][j], i ascending — bit for bit what
// Mul(a.T(), b) returns. Workers own pairs of output rows and stream
// the data rows in tiles of tpTile, so each element is still one
// ascending chain at any worker count.
func MulTP(a, b *Mat, procs int) *Mat {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("vecmath: MulTP shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Cols, b.Cols)
	if a.Rows*a.Cols*b.Cols < minParallelWork {
		procs = 1
	}
	ParallelRanges((a.Cols+1)/2, procs, func(lo, hi int) {
		mulTPRows(a, b, out, 2*lo, min(2*hi, a.Cols))
	})
	return out
}

// mulTPRows accumulates output rows [klo,khi) of aᵀ·b into out. On
// amd64 with AVX2 each tile of data rows is folded into the rows two at
// a time by mulTPAVX2, whose accumulators live in registers across the
// tile; elsewhere mulTPGeneric runs the same chains.
func mulTPRows(a, b, out *Mat, klo, khi int) {
	if !useAVX2 {
		mulTPGeneric(a, b, out, klo, khi)
		return
	}
	n, m, p := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i += tpTile {
		rows := min(tpTile, n-i)
		for k := klo; k < khi; k += 2 {
			k2 := min(k+1, khi-1) // an odd last row pairs with itself
			for j := 0; j < p; j += colGroup {
				w := min(colGroup, p-j)
				mulTPAVX2(a.Data[i*m+k:], a.Data[i*m+k2:], m, b.Data[i*p+j:], p, rows,
					out.Data[k*p+j:], out.Data[k2*p+j:], groupMask(w))
			}
		}
	}
}

// mulTPGeneric is mulTPRows in Go: the kernel off amd64 and under the
// purego tag, and the assembly's oracle in tests. The float64(av*bv)
// conversion forbids FMA fusion.
func mulTPGeneric(a, b, out *Mat, klo, khi int) {
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		br := b.Row(i)
		for k := klo; k < khi; k++ {
			av := ar[k]
			or := out.Row(k)
			for j, bv := range br {
				or[j] += float64(av * bv)
			}
		}
	}
}

// SignMulP sets out to sign(a·b), computed by up to procs workers: 1
// where the product element is ≥ 0 (either zero), −1 where it is below
// zero or NaN — ITQ's quantization B = sign(V·R). Each product element
// is the chain of mulRows, so out is bit-for-bit independent of procs.
// out must be a.Rows×b.Cols; its contents are overwritten.
func SignMulP(a, b, out *Mat, procs int) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("vecmath: SignMulP shape mismatch %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	if a.Rows*a.Cols*b.Cols < minParallelWork {
		procs = 1
	}
	ParallelRanges(a.Rows, procs, func(lo, hi int) {
		mulRows(a, b, out, lo, hi, true)
	})
}

// covTile is how many centered data rows covRows holds at once on the
// AVX2 path: the tile every upper-triangle row of a worker's panel
// passes over before the next is centered.
const covTile = 64

// covRows adds rows [aLo,aHi) of the upper triangle of XcᵀXc into cov,
// Xc the n×d data centered by mean: entry (a, b), b ≥ a, gains
// float64(c_a·c_b) for each data row in ascending order, skipping the
// rows where c_a == 0 (a constant feature's column costs nothing, and
// the skipped 0·c_b would be a NaN where c_b is ±Inf). On amd64 with AVX2
// each tile of centered rows is folded into cov one row segment of up
// to sixteen columns at a time by covRowAVX2; elsewhere covRowsGeneric
// runs the same chains one data row at a time.
func covRows(data []float32, n, d int, mean []float64, cov *Mat, aLo, aHi int) {
	if !useAVX2 {
		covRowsGeneric(data, n, d, mean, cov, aLo, aHi)
		return
	}
	ld := d - aLo // the panel needs columns aLo..d-1
	tile := make([]float64, covTile*ld)
	for i := 0; i < n; i += covTile {
		rows := min(covTile, n-i)
		for r := 0; r < rows; r++ {
			row := data[(i+r)*d : (i+r+1)*d]
			dst := tile[r*ld : (r+1)*ld]
			for j := range dst {
				dst[j] = float64(row[aLo+j]) - mean[aLo+j]
			}
		}
		for a := aLo; a < aHi; a++ {
			for j := a; j < d; j += colGroup {
				w := min(colGroup, d-j)
				covRowAVX2(tile[a-aLo:], tile[j-aLo:], ld, rows, cov.Data[a*d+j:], groupMask(w))
			}
		}
	}
}

// covRowsGeneric is covRows in Go: the kernel off amd64 and under the
// purego tag, and the assembly's oracle in tests. The float64(ca*cb)
// conversion forbids FMA fusion.
func covRowsGeneric(data []float32, n, d int, mean []float64, cov *Mat, aLo, aHi int) {
	centered := make([]float64, d)
	for i := 0; i < n; i++ {
		row := data[i*d : (i+1)*d]
		for j := aLo; j < d; j++ {
			centered[j] = float64(row[j]) - mean[j]
		}
		for a := aLo; a < aHi; a++ {
			ca := centered[a]
			if ca == 0 {
				continue
			}
			cr := cov.Row(a)
			for b := a; b < d; b++ {
				cr[b] += float64(ca * centered[b])
			}
		}
	}
}

// signInPlace replaces each x with 1 if x ≥ 0, else −1 (NaN gives −1).
// It builds the result's bits instead of branching: the signs of
// projected data are coin flips, and a branch on them would mispredict
// half the time.
func signInPlace(x []float64) {
	const one, signBit = 0x3FF0000000000000, 1 << 63
	for i, v := range x {
		var s uint64
		if !(v >= 0) {
			s = signBit
		}
		x[i] = math.Float64frombits(one | s)
	}
}
