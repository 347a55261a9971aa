// Package vecmath provides the dense linear-algebra substrate used by the
// learning-to-hash and vector-quantization trainers, plus the float32
// vector kernels used on the query hot path.
//
// The package is self-contained (stdlib only) because learning to hash
// needs covariance matrices, symmetric eigendecompositions (PCAH, SH),
// and small SVDs (ITQ rotations, OPQ Procrustes updates), none of which
// exist in the Go standard library.
package vecmath

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix of float64 values.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat returns a zeroed r×c matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("vecmath: invalid matrix dims %dx%d", r, c))
	}
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatFrom wraps data (len r*c, row-major) in a matrix without copying.
func NewMatFrom(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("vecmath: data length %d != %d*%d", len(data), r, c))
	}
	return &Mat{Rows: r, Cols: c, Data: data}
}

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	out := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Mul returns the matrix product a·b (the single-worker path of MulP).
func Mul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("vecmath: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Rows, b.Cols)
	mulRows(a, b, out, 0, a.Rows, false)
	return out
}

// MulVec returns the matrix-vector product m·x.
func MulVec(m *Mat, x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("vecmath: MulVec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulVec32 multiplies an m.Rows×m.Cols float64 matrix by a float32 vector,
// writing the result into dst (len m.Rows). It is the projection kernel of
// the query hot path; dst is reused across queries to avoid allocation.
func MulVec32(m *Mat, x []float32, dst []float64) {
	if m.Cols != len(x) || m.Rows != len(dst) {
		panic(fmt.Sprintf("vecmath: MulVec32 shape mismatch %dx%d · %d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * float64(x[j])
		}
		dst[i] = s
	}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Scale multiplies every element of m by s, in place.
func (m *Mat) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Add adds b to m element-wise, in place.
func (m *Mat) Add(b *Mat) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("vecmath: Add shape mismatch")
	}
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Mat) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the maximum absolute value of any element of m.
func (m *Mat) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Covariance returns the d×d sample covariance of the n×d float32 data
// block (row-major rows of dimension d), after subtracting the column
// means. The returned mean slice has length d. It is the single-worker
// path of CovarianceP.
func Covariance(data []float32, n, d int) (cov *Mat, mean []float64) {
	return CovarianceP(data, n, d, 1)
}
