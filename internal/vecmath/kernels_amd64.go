//go:build !purego

package vecmath

// useAVX2 selects the assembly SquaredL2Bounded. It is set once, before
// any caller runs, and never written again.
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
