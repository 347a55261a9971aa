package hash

import (
	"fmt"
	"math/rand"

	"gqr/internal/cluster"
	"gqr/internal/vecmath"
)

// KMH is K-means hashing (He, Wen & Sun): the vector space is split into
// bits/SubspaceBits contiguous subspaces; each learns 2^SubspaceBits
// codewords with k-means, and an item's code is the concatenation of the
// binary indices of its nearest codewords. Unlike the hyperplane
// learners, quantization cells are Voronoi regions, so there is no
// projected vector; the paper's appendix defines the flipping cost of
// bit i as dist(q, c_q') − dist(q, c_q), where c_q is the codeword q is
// quantized to and c_q' the codeword whose binary index differs only in
// bit i. GQR consumes those costs unchanged.
//
// Codewords are trained with plain Lloyd iterations followed by the
// original's affinity-preserving refinement (kmh_affinity.go), which
// aligns inter-codeword Euclidean distances with the scaled Hamming
// distances of their binary indices; set Affinity negative to fall back
// to plain k-means (the abl-kmh-affinity experiment compares the two).
type KMH struct {
	// SubspaceBits is the number of bits per subspace b (codewords per
	// subspace = 2^b). Zero means 4.
	SubspaceBits int
	// Iterations is the number of Lloyd iterations. Zero means 25.
	Iterations int
	// Affinity is the λ weight of the affinity-preserving term;
	// negative disables the refinement, zero means the default 3
	// (calibrated so the refinement improves recall at every budget —
	// see abl-kmh-affinity; much larger values distort quantization).
	Affinity float64
	// AffinitySweeps is the number of refinement alternations. Zero
	// means 10.
	AffinitySweeps int
	// Procs bounds the worker count of the per-subspace k-means and
	// affinity refinement (assignment scans fan out over points, sum
	// accumulation over centroids); <= 0 means GOMAXPROCS. Results are
	// bit-for-bit identical at any setting.
	Procs int
}

// Name implements Learner.
func (KMH) Name() string { return "kmh" }

type kmhSubspace struct {
	dims      int              // dimensions in this subspace
	offset    int              // starting dimension in the full vector
	centroids []float32        // 2^b rows of length dims
	packed    *vecmath.Centers // centroids packed for Code; not serialized
}

// newKMHSubspace wraps a trained or unmarshalled codebook of k rows.
func newKMHSubspace(dims, offset int, centroids []float32, k int) kmhSubspace {
	packed := vecmath.PackCenters(centroids, k, dims)
	return kmhSubspace{dims: dims, offset: offset, centroids: centroids, packed: packed}
}

// kmhHasher holds no mutable state after training (per-subspace
// distance scratch lives on the stack), so it is safe for concurrent
// use.
type kmhHasher struct {
	bits      int
	bitsPerSS int
	dim       int
	subs      []kmhSubspace
}

// maxSubspaceBits bounds codewords per subspace at 2^8: beyond that,
// per-subspace k-means is impractical and the stack scratch would grow.
const maxSubspaceBits = 8

// Train implements Learner.
func (t KMH) Train(data []float32, n, d, bits int, seed int64) (Hasher, error) {
	if err := validateTrain(data, n, d, bits); err != nil {
		return nil, err
	}
	b := t.SubspaceBits
	if b <= 0 {
		b = 4
	}
	if b > maxSubspaceBits {
		return nil, fmt.Errorf("hash: kmh subspace bits (%d) exceed %d", b, maxSubspaceBits)
	}
	if bits%b != 0 {
		return nil, fmt.Errorf("hash: kmh needs bits (%d) divisible by subspace bits (%d)", bits, b)
	}
	m := bits / b // subspaces
	if m > d {
		return nil, fmt.Errorf("hash: kmh needs at least %d dims for %d subspaces, have %d", m, m, d)
	}
	k := 1 << uint(b)
	if n < k {
		return nil, fmt.Errorf("hash: kmh needs at least %d training points for %d codewords", k, k)
	}
	iters := t.Iterations
	if iters <= 0 {
		iters = 25
	}

	rng := rand.New(rand.NewSource(seed))
	subs := make([]kmhSubspace, m)
	// Contiguous, near-equal subspace split.
	offset := 0
	for s := 0; s < m; s++ {
		dims := d / m
		if s < d%m {
			dims++
		}
		// Extract the subspace view of the training data.
		sub := make([]float32, n*dims)
		for i := 0; i < n; i++ {
			copy(sub[i*dims:(i+1)*dims], data[i*d+offset:i*d+offset+dims])
		}
		centroids, err := cluster.KMeansP(sub, n, dims, k, iters, rng, t.Procs)
		if err != nil {
			return nil, fmt.Errorf("hash: kmh subspace %d: %w", s, err)
		}
		lambda := t.Affinity
		if lambda == 0 {
			lambda = 3
		}
		sweeps := t.AffinitySweeps
		if sweeps <= 0 {
			sweeps = 10
		}
		if lambda > 0 {
			refineAffinity(sub, n, dims, centroids, k, lambda, sweeps, t.Procs)
		}
		subs[s] = newKMHSubspace(dims, offset, centroids, k)
		offset += dims
	}
	return &kmhHasher{bits: bits, bitsPerSS: b, dim: d, subs: subs}, nil
}

func (h *kmhHasher) Name() string { return "kmh" }
func (h *kmhHasher) Bits() int    { return h.bits }

func (h *kmhHasher) Code(x []float32) uint64 {
	if len(x) != h.dim {
		panic(fmt.Sprintf("hash: vector dim %d != trained dim %d", len(x), h.dim))
	}
	var code uint64
	for s, sub := range h.subs {
		best, _ := sub.packed.Nearest(x[sub.offset : sub.offset+sub.dims])
		code |= uint64(best) << uint(s*h.bitsPerSS)
	}
	return code
}

// QueryProjection returns q's code and the appendix flipping costs:
// for bit i in subspace s, costs[i] = dist(q, c') − dist(q, c) with c the
// nearest codeword of the subspace and c' the codeword at the
// bit-flipped index. Distances are Euclidean (not squared), matching the
// appendix's dist(·,·). Costs are non-negative because c is the nearest
// codeword.
func (h *kmhHasher) QueryProjection(x []float32, costs []float64) uint64 {
	if len(costs) != h.bits {
		panic(fmt.Sprintf("hash: costs length %d != bits %d", len(costs), h.bits))
	}
	if len(x) != h.dim {
		panic(fmt.Sprintf("hash: vector dim %d != trained dim %d", len(x), h.dim))
	}
	var code uint64
	var dbuf [1 << maxSubspaceBits]float64
	k := 1 << uint(h.bitsPerSS)
	for s, sub := range h.subs {
		xs := x[sub.offset : sub.offset+sub.dims]
		best := 0
		for c := 0; c < k; c++ {
			dbuf[c] = vecmath.L2(xs, sub.centroids[c*sub.dims:(c+1)*sub.dims])
			if dbuf[c] < dbuf[best] {
				best = c
			}
		}
		code |= uint64(best) << uint(s*h.bitsPerSS)
		for b := 0; b < h.bitsPerSS; b++ {
			flipped := best ^ (1 << uint(b))
			costs[s*h.bitsPerSS+b] = dbuf[flipped] - dbuf[best]
		}
	}
	return code
}
