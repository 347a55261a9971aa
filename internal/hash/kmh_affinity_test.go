package hash

import (
	"math/rand"
	"testing"

	"gqr/internal/cluster"
	"gqr/internal/vecmath"
)

func TestHammingInt(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0b1010, 0b0101, 4}, {7, 4, 2},
	}
	for _, c := range cases {
		if got := hammingInt(c.a, c.b); got != c.want {
			t.Fatalf("hammingInt(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAffinityScaleClosedForm(t *testing.T) {
	// Two codewords with indices 0 and 1 (Hamming 1) at distance 3:
	// optimal s is exactly 3.
	centroids := []float32{0, 0, 3, 0}
	counts := []int{5, 5}
	if s := affinityScale(centroids, 2, 2, counts); s != 3 {
		t.Fatalf("scale = %g, want 3", s)
	}
}

func TestRefineAffinityReducesAffinityError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, dims, k = 600, 4, 8
	data := make([]float32, n*dims)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 3)
	}
	plain, err := cluster.KMeans(data, n, dims, k, 20, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	counts := assignCounts(data, n, dims, plain, k)
	before := affinityError(plain, k, dims, counts, affinityScale(plain, k, dims, counts))

	refined := make([]float32, len(plain))
	copy(refined, plain)
	refineAffinity(data, n, dims, refined, k, 10, 10, 1)
	counts2 := assignCounts(data, n, dims, refined, k)
	after := affinityError(refined, k, dims, counts2, affinityScale(refined, k, dims, counts2))

	if after >= before {
		t.Fatalf("affinity error did not decrease: %g -> %g", before, after)
	}
	// And quantization must not collapse: error stays within a factor
	// of the plain k-means error.
	eq1 := cluster.QuantizationError(data, n, dims, plain, k)
	eq2 := cluster.QuantizationError(data, n, dims, refined, k)
	if eq2 > 3*eq1 {
		t.Fatalf("refinement destroyed quantization: %g -> %g", eq1, eq2)
	}
}

func assignCounts(data []float32, n, dims int, centroids []float32, k int) []int {
	counts := make([]int, k)
	packed := vecmath.PackCenters(centroids, k, dims)
	for i := 0; i < n; i++ {
		best, _ := packed.Nearest(data[i*dims : (i+1)*dims])
		counts[best]++
	}
	return counts
}

func TestRefineAffinityNoopOnZeroLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, dims, k = 100, 3, 4
	data := make([]float32, n*dims)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	cents, err := cluster.KMeans(data, n, dims, k, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]float32, len(cents))
	copy(orig, cents)
	refineAffinity(data, n, dims, cents, k, 0, 10, 1)
	refineAffinity(data, n, dims, cents, k, 10, 0, 1)
	for i := range cents {
		if cents[i] != orig[i] {
			t.Fatal("refineAffinity modified centroids with lambda/sweeps = 0")
		}
	}
}

func TestKMHAffinityImprovesNeighborBitAgreement(t *testing.T) {
	// With affinity-preserving codewords, geometrically close codewords
	// get close binary indices, so flipping one bit of a code should
	// land in a *nearby* cell. Measure: average distance between each
	// codeword and its 1-bit-flip neighbors, affinity on vs off — the
	// refined codebook must not be worse.
	const n, d, bits = 800, 8, 8
	data := trainData(t, n, d, 61)
	affOn, err := (KMH{SubspaceBits: 4, Iterations: 15, Affinity: 10, AffinitySweeps: 10}).Train(data, n, d, bits, 62)
	if err != nil {
		t.Fatal(err)
	}
	affOff, err := (KMH{SubspaceBits: 4, Iterations: 15, Affinity: -1}).Train(data, n, d, bits, 62)
	if err != nil {
		t.Fatal(err)
	}
	flipDist := func(h Hasher) float64 {
		kh := h.(*kmhHasher)
		var total float64
		var count int
		for _, sub := range kh.subs {
			k := 1 << uint(kh.bitsPerSS)
			for i := 0; i < k; i++ {
				for b := 0; b < kh.bitsPerSS; b++ {
					j := i ^ (1 << uint(b))
					total += vecmath.L2(sub.centroids[i*sub.dims:(i+1)*sub.dims], sub.centroids[j*sub.dims:(j+1)*sub.dims])
					count++
				}
			}
		}
		return total / float64(count)
	}
	on, off := flipDist(affOn), flipDist(affOff)
	if on > off*1.02 {
		t.Fatalf("affinity refinement made 1-bit flips jump farther: %g vs %g", on, off)
	}
	t.Logf("avg 1-bit-flip codeword distance: affinity on %.3f, off %.3f", on, off)
}
