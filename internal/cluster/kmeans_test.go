package cluster

import (
	"math/rand"
	"testing"

	"gqr/internal/vecmath"
)

// blob generates k well-separated Gaussian blobs.
func blob(rng *rand.Rand, n, dims, k int) []float32 {
	data := make([]float32, n*dims)
	for i := 0; i < n; i++ {
		c := i % k
		for j := 0; j < dims; j++ {
			data[i*dims+j] = float32(float64(c*20) + rng.NormFloat64()*0.5)
		}
	}
	return data
}

func TestKMeansRecoversSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, dims, k = 300, 4, 3
	data := blob(rng, n, dims, k)
	centroids, err := KMeans(data, n, dims, k, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every point must be within 5 of its centroid (blobs are 20 apart
	// with stddev 0.5).
	packed := vecmath.PackCenters(centroids, k, dims)
	for i := 0; i < n; i++ {
		_, d := packed.Nearest(data[i*dims : (i+1)*dims])
		if d > 25 {
			t.Fatalf("point %d has squared distance %g to nearest centroid", i, d)
		}
	}
}

func TestKMeansObjectiveDescends(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, dims, k = 400, 6, 8
	data := make([]float32, n*dims)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	few, err := KMeans(data, n, dims, k, 1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	many, err := KMeans(data, n, dims, k, 30, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	e1 := QuantizationError(data, n, dims, few, k)
	e2 := QuantizationError(data, n, dims, many, k)
	if e2 > e1*1.0001 {
		t.Fatalf("more iterations increased the objective: %g -> %g", e1, e2)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	const n, dims, k = 100, 3, 4
	rng := rand.New(rand.NewSource(4))
	data := blob(rng, n, dims, k)
	a, _ := KMeans(data, n, dims, k, 10, rand.New(rand.NewSource(5)))
	b, _ := KMeans(data, n, dims, k, 10, rand.New(rand.NewSource(5)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("KMeans not deterministic for fixed rng seed")
		}
	}
}

func TestKMeansValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := make([]float32, 10*2)
	if _, err := KMeans(data, 10, 2, 0, 5, rng); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := KMeans(data, 10, 2, 11, 5, rng); err == nil {
		t.Fatal("k>n must be rejected")
	}
	if _, err := KMeans(data[:5], 10, 2, 2, 5, rng); err == nil {
		t.Fatal("short data must be rejected")
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, dims = 10, 2
	data := make([]float32, n*dims)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 10)
	}
	centroids, err := KMeans(data, n, dims, n, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	// With k = n the quantization error must be ~0 (each point its own
	// centroid) — k-means++ guarantees distinct seeds when points are
	// distinct.
	if e := QuantizationError(data, n, dims, centroids, n); e > 1e-6 {
		t.Fatalf("k=n quantization error %g", e)
	}
}
