package vecmath

import (
	"math"
	"sort"
)

// SVD computes the thin singular value decomposition A = U·diag(σ)·Vᵀ of
// an r×c matrix with r ≥ c, using the one-sided Jacobi method. U is r×c
// with orthonormal columns, V is c×c orthogonal, and the singular values
// are returned in descending order. A is not modified.
//
// For r < c, decompose the transpose and swap U and V at the call site.
func SVD(a *Mat) (u *Mat, sigma []float64, v *Mat) {
	if a.Rows < a.Cols {
		panic("vecmath: SVD requires rows >= cols; transpose first")
	}
	r, c := a.Rows, a.Cols
	// Work on a column-major copy: one-sided Jacobi rotates column pairs.
	w := a.Clone()
	v = Identity(c)

	colDot := func(i, j int) float64 {
		var s float64
		for k := 0; k < r; k++ {
			s += w.At(k, i) * w.At(k, j)
		}
		return s
	}

	const maxSweeps = 60
	eps := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		converged := true
		for p := 0; p < c-1; p++ {
			for q := p + 1; q < c; q++ {
				alpha := colDot(p, p)
				beta := colDot(q, q)
				gamma := colDot(p, q)
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				converged = false
				zeta := (beta - alpha) / (2 * gamma)
				t := 1 / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				if zeta < 0 {
					t = -t
				}
				cs := 1 / math.Sqrt(1+t*t)
				sn := cs * t
				for k := 0; k < r; k++ {
					wp, wq := w.At(k, p), w.At(k, q)
					w.Set(k, p, cs*wp-sn*wq)
					w.Set(k, q, sn*wp+cs*wq)
				}
				for k := 0; k < c; k++ {
					vp, vq := v.At(k, p), v.At(k, q)
					v.Set(k, p, cs*vp-sn*vq)
					v.Set(k, q, sn*vp+cs*vq)
				}
			}
		}
		if converged {
			break
		}
	}

	// Singular values are the column norms of the rotated matrix; U's
	// columns are those columns normalized.
	sigma = make([]float64, c)
	for j := 0; j < c; j++ {
		var s float64
		for k := 0; k < r; k++ {
			s += w.At(k, j) * w.At(k, j)
		}
		sigma[j] = math.Sqrt(s)
	}

	order := make([]int, c)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return sigma[order[i]] > sigma[order[j]] })

	u = NewMat(r, c)
	sortedSigma := make([]float64, c)
	sortedV := NewMat(c, c)
	for dst, src := range order {
		sortedSigma[dst] = sigma[src]
		inv := 0.0
		if sigma[src] > 0 {
			inv = 1 / sigma[src]
		}
		for k := 0; k < r; k++ {
			u.Set(k, dst, w.At(k, src)*inv)
		}
		for k := 0; k < c; k++ {
			sortedV.Set(k, dst, v.At(k, src))
		}
	}
	return u, sortedSigma, sortedV
}

// SpectralNorm returns σ_max(a), the largest singular value of a, the
// constant M in Theorem 1 of the paper.
func SpectralNorm(a *Mat) float64 {
	m := a
	if m.Rows < m.Cols {
		m = m.T()
	}
	_, sigma, _ := SVD(m)
	if len(sigma) == 0 {
		return 0
	}
	return sigma[0]
}

// Procrustes is the single-worker path of ProcrustesP.
func Procrustes(a, b *Mat) *Mat { return ProcrustesP(a, b, 1) }
