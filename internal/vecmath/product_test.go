package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// The product and covariance kernels must return the bits of their Go
// versions — the serial loops — for every shape and value, ±Inf and
// ±0 included: each output element is one ascending chain, in assembly
// and in Go alike. A NaN must stay a NaN, but its payload may differ:
// when both operands of an add are NaN, x86 keeps the first one's, and
// the Go compiler does not fix the operand order of a commutative
// operation (the -race build orders some of them differently).

// specialFloat64 draws a matrix entry by mode: Gaussian over several
// magnitudes, small integers (exact zeros and cancellations), or a
// special value (NaN, ±Inf, ±0, subnormals, huge).
func specialFloat64(rng *rand.Rand, mode int) float64 {
	switch mode {
	case 1:
		return float64(rng.Intn(3) - 1)
	case 2:
		switch rng.Intn(16) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return math.Copysign(0, -1)
		case 4:
			return 0
		case 5:
			return 5e-324 // smallest subnormal
		case 6:
			return -1e-310 // subnormal
		case 7:
			return math.MaxFloat64
		}
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}

func specialMat(rng *rand.Rand, r, c, mode int) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = specialFloat64(rng, mode)
	}
	return m
}

// bitsEqual fails unless got holds exactly want's bits, NaN payloads
// aside.
func bitsEqual(t testing.TB, name string, want, got *Mat) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(v) && !(math.IsNaN(g) && math.IsNaN(v)) {
			t.Fatalf("%s (%dx%d): element (%d,%d) = %v (%#x), want %v (%#x)", name, want.Rows, want.Cols,
				i/want.Cols, i%want.Cols, g, math.Float64bits(g), v, math.Float64bits(v))
		}
	}
}

// filled returns an r×c matrix of NaNs: kernels that must overwrite
// their output start from it.
func filled(r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// checkMulRows compares the dispatched row kernel, with and without the
// sign, against mulRowsGeneric for a·b.
func checkMulRows(t testing.TB, a, b *Mat) {
	t.Helper()
	want := NewMat(a.Rows, b.Cols)
	mulRowsGeneric(a, b, want, 0, a.Rows)
	got := filled(a.Rows, b.Cols)
	mulRows(a, b, got, 0, a.Rows, false)
	bitsEqual(t, "mulRows", want, got)

	signInPlace(want.Data)
	for _, procs := range []int{1, 2, 3} {
		got := filled(a.Rows, b.Cols)
		SignMulP(a, b, got, procs)
		bitsEqual(t, "SignMulP", want, got)
	}
}

// checkMulTP compares MulTP at several worker counts, and mulTPGeneric,
// against the row kernel's Go version on the built transpose.
func checkMulTP(t testing.TB, a, b *Mat) {
	t.Helper()
	at := a.T()
	want := NewMat(a.Cols, b.Cols)
	mulRowsGeneric(at, b, want, 0, at.Rows)
	gen := NewMat(a.Cols, b.Cols)
	mulTPGeneric(a, b, gen, 0, a.Cols)
	bitsEqual(t, "mulTPGeneric", want, gen)
	for _, procs := range []int{1, 2, 3} {
		bitsEqual(t, "MulTP", want, MulTP(a, b, procs))
	}
}

func TestMulRowsMatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 kernel on this platform: dispatch is the generic kernel")
	}
	rng := rand.New(rand.NewSource(41))
	for _, rows := range []int{1, 2, 3, 7, 64, 65} {
		for _, k := range []int{0, 1, 3, 14, 33} {
			for _, p := range []int{1, 3, 4, 5, 14, 16, 17, 33, 64} {
				for mode := 0; mode < 3; mode++ {
					checkMulRows(t, specialMat(rng, rows, k, mode), specialMat(rng, k, p, mode))
				}
			}
		}
	}
}

func TestMulTPMatchesTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, tpTile - 1, tpTile, tpTile + 1, 2*tpTile + 37} {
		for _, m := range []int{1, 2, 3, 14} {
			for _, p := range []int{1, 4, 14, 17, 40} {
				for mode := 0; mode < 3; mode++ {
					checkMulTP(t, specialMat(rng, n, m, mode), specialMat(rng, n, p, mode))
				}
			}
		}
	}
}

// covData draws an n×d float32 block by mode (as specialFloat draws),
// with column 0 constant so its centered values are exactly zero and
// the covariance kernels' zero skip decides bits: with +Inf somewhere
// in another column, 0·(±Inf) would add a NaN.
func covData(rng *rand.Rand, n, d, mode int) []float32 {
	data := make([]float32, n*d)
	for i := range data {
		data[i] = specialFloat(rng, mode)
	}
	for i := 0; i < n; i++ {
		data[i*d] = 1.5
	}
	return data
}

// checkCovariance compares CovarianceP at several worker counts with
// the triangular update run by covRowsGeneric alone.
func checkCovariance(t testing.TB, data []float32, n, d int) {
	t.Helper()
	want, mean := CovarianceP(data, n, d, 1)
	raw := NewMat(d, d)
	covRowsGeneric(data, n, d, mean, raw, 0, d)
	inv := 1 / float64(n-1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := raw.At(a, b) * inv
			raw.Set(a, b, v)
			raw.Set(b, a, v)
		}
	}
	bitsEqual(t, "CovarianceP(1)", raw, want)
	for _, procs := range []int{2, 3} {
		got, _ := CovarianceP(data, n, d, procs)
		bitsEqual(t, "CovarianceP", want, got)
	}
}

func TestCovarianceKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{2, 3, covTile, covTile + 1, 2*covTile + 9} {
		for _, d := range []int{1, 2, 5, 16, 17, 40} {
			for mode := 0; mode < 3; mode++ {
				checkCovariance(t, covData(rng, n, d, mode), n, d)
			}
		}
	}
}

// fuzzShape maps fuzzer bytes to the kernels' shapes: rows up to three
// tiles and then some, inner and output widths 1–64.
func fuzzShape(rows, k, p uint16) (int, int, int) {
	return 1 + int(rows)%(3*tpTile+5), 1 + int(k)%64, 1 + int(p)%64
}

// FuzzMulRows checks ITQ's sign-pass row kernel — the dispatched mulRows
// and SignMulP — against mulRowsGeneric bit for bit.
func FuzzMulRows(f *testing.F) {
	f.Add(int64(1), uint16(7), uint16(14), uint16(14), uint8(0))
	f.Add(int64(2), uint16(129), uint16(3), uint16(17), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows, k, p uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		r, kk, pp := fuzzShape(rows, k, p)
		r = 1 + r%70 // the row kernel has no tile; keep executions quick
		m := int(mode % 3)
		checkMulRows(t, specialMat(rng, r, kk, m), specialMat(rng, kk, pp, m))
	})
}

// FuzzMulTP checks MulTP (dispatched, at one to three workers) and
// mulTPGeneric against the Go row kernel on the built transpose, bit
// for bit, with data rows across the tile edges.
func FuzzMulTP(f *testing.F) {
	f.Add(int64(1), uint16(tpTile+1), uint16(14), uint16(14), uint8(0))
	f.Add(int64(2), uint16(3), uint16(5), uint16(63), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows, k, p uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, m, pp := fuzzShape(rows, k, p)
		md := int(mode % 3)
		checkMulTP(t, specialMat(rng, n, m, md), specialMat(rng, n, pp, md))
	})
}

// FuzzCovariance checks CovarianceP's dispatched triangular update
// against covRowsGeneric bit for bit, with rows across the tile edges.
func FuzzCovariance(f *testing.F) {
	f.Add(int64(1), uint16(covTile+1), uint16(17), uint8(0))
	f.Add(int64(2), uint16(5), uint16(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows, d uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(rows)%(3*covTile+5)
		dd := 1 + int(d)%64
		checkCovariance(t, covData(rng, n, dd, int(mode%3)), n, dd)
	})
}

func BenchmarkMulTP(b *testing.B) {
	// ITQ's Procrustes factor at the search-d128 benchmark's bits, on a
	// quarter of its rows.
	rng := rand.New(rand.NewSource(44))
	v := randMat(rng, 50000, 14)
	s := randMat(rng, 50000, 14)
	for _, p := range []int{1, 2} {
		b.Run(benchName("p", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulTP(v, s, p)
			}
		})
	}
}
