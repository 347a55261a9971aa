package hash

import (
	"fmt"
	"math/rand"

	"gqr/internal/vecmath"
)

// ITQ is iterative quantization (Gong & Lazebnik): PCA projection
// followed by an orthogonal rotation R learned to minimize the
// quantization error ‖B − V·R‖_F, alternating between B = sign(V·R) and
// the Procrustes update of R. It is the paper's default learner.
type ITQ struct {
	// Iterations is the number of alternating updates; the original
	// paper uses 50. Zero means 50.
	Iterations int
	// Procs bounds the worker count of the training kernels
	// (covariance, batch projection, Procrustes products); <= 0 means
	// GOMAXPROCS. Results are bit-for-bit identical at any setting.
	Procs int
}

// Name implements Learner.
func (ITQ) Name() string { return "itq" }

// Train implements Learner.
func (t ITQ) Train(data []float32, n, d, bits int, seed int64) (Hasher, error) {
	if err := validateTrain(data, n, d, bits); err != nil {
		return nil, err
	}
	if bits > d {
		return nil, fmt.Errorf("hash: itq needs bits (%d) <= dim (%d)", bits, d)
	}
	iters := t.Iterations
	if iters <= 0 {
		iters = 50
	}
	procs := t.Procs

	cov, mean := vecmath.CovarianceP(data, n, d, procs)
	e := vecmath.TopEigenvectors(cov, bits) // bits×d

	// Project the (centered) training data: V = Xc·Eᵀ, n×bits.
	v := vecmath.MulBatch32(data, n, d, e, mean, procs)

	rng := rand.New(rand.NewSource(seed))
	r := vecmath.RandomRotation(rng, bits)
	// One n×bits buffer serves every iteration: each step is one
	// parallel row pass writing B = sign(V·R) over it, then the
	// Procrustes update R = argmin ‖B − V·R‖ over orthogonal R, whose
	// Vᵀ·B never builds Vᵀ.
	b := vecmath.NewMat(n, bits)
	for it := 0; it < iters; it++ {
		vecmath.SignMulP(v, r, b, procs)
		r = vecmath.ProcrustesP(v, b, procs)
	}

	// Fold the rotation into the hashing matrix: p(x) = Rᵀ·E·(x−mean),
	// so H = Rᵀ·E (bits×d) and Theorem 1 applies directly.
	h := vecmath.MulTP(r, e, 1)
	return newProjHasher("itq", h, mean), nil
}
