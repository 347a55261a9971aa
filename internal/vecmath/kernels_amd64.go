//go:build !purego

package vecmath

// useAVX2 selects the assembly kernels of kernels_amd64.s. It is set
// once, before any caller runs, and never written again.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID leaf 1 OSXSAVE and AVX,
// XGETBV XCR0 bits 1 and 2, CPUID leaf 7 AVX2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// squaredL2BoundedAVX2 is SquaredL2BoundedGeneric in AVX2 assembly;
// len(a) == len(b), checked by the caller.
//
//go:noescape
func squaredL2BoundedAVX2(a, b []float32, bound float64) float64

// PrefetchRows asks the CPU to start loading the first two cache lines
// (128 bytes) of each row ids[j] of the row-major slab data with row
// length dim. It only hints: no memory is read, nothing is bounds
// checked, and an id outside the slab costs at most a wasted prefetch.
//
//go:noescape
func PrefetchRows(data []float32, dim int, ids []int32)

// nearestAVX2 is the lane loop of nearestGeneric in AVX2 assembly over
// a packed codebook (len(packed) a multiple of 4·len(x), len(x) ≥ 1
// unless packed is empty): mins[l] gets the smallest distance among
// centroids 4b+l (+Inf if none is below it) and blks[l] the first such
// b.
//
//go:noescape
func nearestAVX2(x, packed []float32, mins *[4]float64, blks *[4]int64)

// mulRowsAVX2 is mulRowsGeneric in AVX2 assembly for one group of up to
// sixteen output columns, w of them live as mask says (see groupMask):
// rows rows of a (stride lda, k columns) times b (stride ldb) into out
// (stride ldo), or their signs as signInPlace takes them when sign is
// set. The caller keeps every access in bounds.
//
//go:noescape
func mulRowsAVX2(a []float64, lda int, b []float64, ldb int, out []float64, ldo, rows, k int, mask *[colGroup]int64, sign bool)

// mulTPAVX2 is one tile of mulTPGeneric in AVX2 assembly: output rows
// o0 and o1 (one group of up to sixteen columns) gain the products of
// rows data rows, columns x0 and x1 of a (stride lda), with b (stride
// ldb). The caller keeps every access in bounds.
//
//go:noescape
func mulTPAVX2(x0, x1 []float64, lda int, b []float64, ldb, rows int, o0, o1 []float64, mask *[colGroup]int64)

// covRowAVX2 is one tile of covRowsGeneric in AVX2 assembly: one row
// segment o of up to sixteen columns (live as mask says) gains
// x[i]·b[i][·] for each of rows centered rows i with x[i] != 0, x and b
// with row stride ld. The caller keeps every access in bounds.
//
//go:noescape
func covRowAVX2(x, b []float64, ld, rows int, o []float64, mask *[colGroup]int64)
