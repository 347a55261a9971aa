//go:build !amd64 || purego

package vecmath

// useAVX2 is false off amd64 and under the purego tag: every kernel
// runs its pure-Go version.
const useAVX2 = false

func squaredL2BoundedAVX2(a, b []float32, bound float64) float64 {
	return SquaredL2BoundedGeneric(a, b, bound)
}

// PrefetchRows is a no-op here; on amd64 it prefetches the first two
// cache lines of each row ids[j] of the row-major slab data.
func PrefetchRows(data []float32, dim int, ids []int32) {}

// nearestAVX2 is never called here: Centers.Nearest runs nearestGeneric
// when useAVX2 is false.
func nearestAVX2(x, packed []float32, mins *[4]float64, blks *[4]int64) {
	panic("vecmath: no AVX2 kernel on this platform")
}

// mulRowsAVX2, mulTPAVX2 and covRowAVX2 are never called here: the
// product kernels run their Go versions when useAVX2 is false.
func mulRowsAVX2(a []float64, lda int, b []float64, ldb int, out []float64, ldo, rows, k int, mask *[colGroup]int64, sign bool) {
	panic("vecmath: no AVX2 kernel on this platform")
}

func mulTPAVX2(x0, x1 []float64, lda int, b []float64, ldb, rows int, o0, o1 []float64, mask *[colGroup]int64) {
	panic("vecmath: no AVX2 kernel on this platform")
}

func covRowAVX2(x, b []float64, ld, rows int, o []float64, mask *[colGroup]int64) {
	panic("vecmath: no AVX2 kernel on this platform")
}
