package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSquaredL2Known(t *testing.T) {
	a := []float32{0, 0, 0}
	b := []float32{1, 2, 2}
	if d := SquaredL2(a, b); d != 9 {
		t.Fatalf("SquaredL2 = %g, want 9", d)
	}
	if d := L2(a, b); d != 3 {
		t.Fatalf("L2 = %g, want 3", d)
	}
}

func TestSquaredL2OddLengths(t *testing.T) {
	// Exercise the tail loop for lengths not divisible by 4.
	for _, n := range []int{1, 2, 3, 5, 7, 9} {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(i)
			b[i] = float32(i + 1)
		}
		if d := SquaredL2(a, b); d != float64(n) {
			t.Fatalf("n=%d SquaredL2=%g want %d", n, d, n)
		}
	}
}

func TestSquaredL2Properties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		// Symmetry, identity, non-negativity.
		if SquaredL2(a, b) != SquaredL2(b, a) {
			return false
		}
		if SquaredL2(a, a) != 0 {
			return false
		}
		return SquaredL2(a, b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndNorm(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, -5, 6}
	if d := Dot(a, b); d != 12 {
		t.Fatalf("Dot = %g, want 12", d)
	}
	if n := Norm64([]float64{3, 4}); n != 5 {
		t.Fatalf("Norm64 = %g, want 5", n)
	}
}

// referenceDot is the pre-unroll single-accumulator kernel; the
// unrolled Dot must agree with it to float64 rounding.
func referenceDot(a, b []float32) float64 {
	var s float64
	for i, v := range a {
		s += float64(v) * float64(b[i])
	}
	return s
}

func TestDotNormUnrolledMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(70) // crosses several unroll boundaries
		a := make([]float32, n)
		b := make([]float32, n)
		var ref float64
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		ref = referenceDot(a, b)
		scale := math.Abs(ref) + 1
		return math.Abs(Dot(a, b)-ref) <= 1e-12*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSquaredL2BoundedInfMatchesExact(t *testing.T) {
	// With bound = +Inf the bounded kernel must be bit-for-bit identical
	// to SquaredL2 — the accumulation order is the same, so not even a
	// rounding difference is tolerated.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		return SquaredL2Bounded(a, b, math.Inf(1)) == SquaredL2(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkBoundedContract asserts the early-abandon invariant for one
// (a, b, bound) triple: r ≤ bound ⇒ r is the exact distance; r > bound ⇒
// the exact distance is ≥ r (so the candidate provably fails the bound).
func checkBoundedContract(t *testing.T, a, b []float32, bound float64) {
	t.Helper()
	exact := SquaredL2(a, b)
	r := SquaredL2Bounded(a, b, bound)
	if r <= bound {
		if r != exact {
			t.Fatalf("bound=%g: returned %g ≤ bound but exact is %g", bound, r, exact)
		}
	} else {
		if exact < r {
			t.Fatalf("bound=%g: abandoned with partial %g > exact %g (not a lower bound)", bound, r, exact)
		}
	}
}

func TestSquaredL2BoundedContractRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(96)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		exact := SquaredL2(a, b)
		// Bounds around the exact distance, including 0 and fractions of
		// it, exercise both completion and abandonment.
		for _, bound := range []float64{0, exact * 0.1, exact * 0.5, exact * 0.99, exact, exact * 1.01, math.Inf(1)} {
			checkBoundedContract(t, a, b, bound)
		}
	}
}

func TestSquaredL2BoundedAdversarialNearBound(t *testing.T) {
	// Adversarial case: the partial sum sits exactly at the bound on a
	// block boundary and the remaining dims contribute nothing. The
	// kernel must NOT abandon (check is strict >), because an exact tie
	// decides heap admission by id and the caller needs the true value.
	a := make([]float32, 32)
	b := make([]float32, 32)
	for i := 0; i < 16; i++ {
		a[i], b[i] = 1, 0 // first block sums to exactly 16
	}
	exact := SquaredL2(a, b)
	if exact != 16 {
		t.Fatalf("setup: exact = %g", exact)
	}
	if r := SquaredL2Bounded(a, b, 16); r != 16 {
		t.Fatalf("partial == bound must complete exactly: got %g", r)
	}
	// One ulp below: now the first block already exceeds the bound and
	// the kernel abandons with a partial ≥ the true distance floor.
	below := math.Nextafter(16, 0)
	if r := SquaredL2Bounded(a, b, below); r <= below {
		t.Fatalf("bound %g: got %g, want abandonment with r > bound", below, r)
	}
	// Mass after the boundary: bound met at block 1 but distance keeps
	// growing; abandonment must still lower-bound the true distance.
	b[20] = 5
	checkBoundedContract(t, a, b, 16)
	if r := SquaredL2Bounded(a, b, 16); r > SquaredL2(a, b) {
		t.Fatalf("partial %g exceeds exact %g", r, SquaredL2(a, b))
	}
}

// blockSums returns the partial sums SquaredL2Bounded compares against
// its bound, one per complete 16-dim block. The kernel's accumulation
// order makes each the exact SquaredL2 of the prefix.
func blockSums(a, b []float32) []float64 {
	var sums []float64
	for end := boundedBlock; end <= len(a); end += boundedBlock {
		sums = append(sums, SquaredL2(a[:end], b[:end]))
	}
	return sums
}

// edgeBounds are the bounds every bit-identity check covers besides its
// own: zero, +Inf, -Inf, NaN, two subnormals, and each block sum and the
// float64 one ulp below it (the kernel abandons at exactly that block).
func edgeBounds(a, b []float32) []float64 {
	bounds := []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, 1e-310}
	for _, s := range blockSums(a, b) {
		bounds = append(bounds, s, math.Nextafter(s, math.Inf(-1)))
	}
	return bounds
}

// checkBitIdentical asserts that the dispatched SquaredL2Bounded (the
// assembly kernel where the CPU has it) returns the same float64 bits as
// the pure-Go kernel.
func checkBitIdentical(t *testing.T, a, b []float32, bound float64) {
	t.Helper()
	got, want := SquaredL2Bounded(a, b, bound), SquaredL2BoundedGeneric(a, b, bound)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n=%d bound=%g: dispatched %g (%#x) != generic %g (%#x)",
			len(a), bound, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func FuzzSquaredL2Bounded(f *testing.F) {
	f.Add(uint8(8), int64(1), float64(0.5))
	f.Add(uint8(33), int64(9), float64(0))
	f.Add(uint8(64), int64(3), math.Inf(1))
	f.Add(uint8(255), int64(5), float64(1e-310))
	f.Add(uint8(17), int64(2), math.SmallestNonzeroFloat64)
	f.Add(uint8(131), int64(8), float64(40))
	f.Fuzz(func(t *testing.T, n uint8, seed int64, bound float64) {
		if n == 0 {
			n = 1
		}
		rng := rand.New(rand.NewSource(seed))
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		for _, eb := range append(edgeBounds(a, b), bound) {
			checkBitIdentical(t, a, b, eb)
		}
		if math.IsNaN(bound) {
			bound = 0
		}
		exact := SquaredL2(a, b)
		if got := SquaredL2Bounded(a, b, math.Inf(1)); got != exact {
			t.Fatalf("inf bound: %g != %g", got, exact)
		}
		r := SquaredL2Bounded(a, b, bound)
		if r <= bound && r != exact {
			t.Fatalf("bound %g: completed with %g != exact %g", bound, r, exact)
		}
		if r > bound && exact < r {
			t.Fatalf("bound %g: partial %g not a lower bound of %g", bound, r, exact)
		}
	})
}

func TestSquaredL2BoundedDispatchMatchesGenericAllDims(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 kernel on this platform: dispatch is the generic kernel")
	}
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 160; n++ {
		for trial := 0; trial < 4; trial++ {
			a := make([]float32, n)
			b := make([]float32, n)
			for i := range a {
				// Mixed magnitudes, so rounding differs per lane and an
				// accumulator mix-up cannot cancel out.
				a[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
				b[i] = float32(rng.NormFloat64())
			}
			exact := SquaredL2(a, b)
			bounds := append(edgeBounds(a, b), exact, math.Nextafter(exact, 0), exact/2, exact*0.99)
			for _, bound := range bounds {
				checkBitIdentical(t, a, b, bound)
			}
		}
	}
}

func TestArgNearestExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	k, d := 17, 9
	centers := make([]float32, k*d)
	for i := range centers {
		centers[i] = float32(rng.NormFloat64())
	}
	packed := PackCenters(centers, k, d)
	for trial := 0; trial < 50; trial++ {
		x := make([]float32, d)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		best, bestDist := packed.Nearest(x)
		// Verify against a plain scan.
		wantBest, wantDist := -1, math.Inf(1)
		for c := 0; c < k; c++ {
			dd := SquaredL2(x, centers[c*d:(c+1)*d])
			if dd < wantDist {
				wantDist = dd
				wantBest = c
			}
		}
		if best != wantBest || !almostEqual(bestDist, wantDist, 1e-12) {
			t.Fatalf("Nearest=(%d,%g) want (%d,%g)", best, bestDist, wantBest, wantDist)
		}
	}
}

func TestKernelLengthPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"SquaredL2": func() { SquaredL2([]float32{1}, []float32{1, 2}) },
		"Dot":       func() { Dot([]float32{1}, []float32{1, 2}) },
		"Nearest": func() {
			PackCenters([]float32{1, 2}, 1, 2).Nearest([]float32{1})
		},
		"PackCenters": func() { PackCenters([]float32{1}, 1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkSquaredL2Dim32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, 32)
	y := make([]float32, 32)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SquaredL2(x, y)
	}
	benchSink = sink
}

// benchKernelVecs builds a deterministic pair of dim-n vectors.
func benchKernelVecs(n int, seed int64) (x, y []float32) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float32, n)
	y = make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
	}
	return x, y
}

// benchBoundedKernels runs one bounded-kernel benchmark on the pure-Go
// kernel and on the dispatched one (the assembly where the CPU has it).
func benchBoundedKernels(b *testing.B, x, y []float32, bound float64) {
	for _, k := range []struct {
		name string
		fn   func(a, b []float32, bound float64) float64
	}{{"generic", SquaredL2BoundedGeneric}, {"dispatch", SquaredL2Bounded}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += k.fn(x, y, bound)
			}
			benchSink = sink
		})
	}
}

func BenchmarkSquaredL2BoundedDim128Complete(b *testing.B) {
	// Bound above the distance: the kernel always runs to completion, so
	// this measures the pure overhead of the blockwise checks.
	x, y := benchKernelVecs(128, 3)
	benchBoundedKernels(b, x, y, SquaredL2(x, y)+1)
}

func BenchmarkSquaredL2BoundedDim128Abandon(b *testing.B) {
	// Tight bound: the kernel abandons after the first block — the
	// steady-state case once the top-k heap is full of near neighbors.
	x, y := benchKernelVecs(128, 4)
	benchBoundedKernels(b, x, y, SquaredL2(x[:16], y[:16])/2)
}

func BenchmarkDotDim32(b *testing.B) {
	x, y := benchKernelVecs(32, 5)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	benchSink = sink
}

func BenchmarkMulVec32Proj(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := GaussianMat(rng, 14, 32) // typical projection: 14 bits × 32 dims
	x := make([]float32, 32)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	dst := make([]float64, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulVec32(m, x, dst)
	}
}

var benchSink float64
