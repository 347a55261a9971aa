package hash

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gqr/internal/dataset"
	"gqr/internal/vecmath"
)

// trainData builds a small training corpus with correlated structure.
func trainData(t testing.TB, n, d int, seed int64) []float32 {
	t.Helper()
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "train", N: n, Dim: d, Clusters: 4, LatentDim: d / 4, Seed: seed,
	})
	return ds.Vectors
}

func allLearners() []Learner {
	return []Learner{LSH{}, PCAH{}, ITQ{Iterations: 10}, SH{}, KMH{SubspaceBits: 4, Iterations: 8}, SSH{Pairs: 200, Candidates: 10}}
}

func TestRegistry(t *testing.T) {
	for _, name := range Algorithms() {
		l, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if l.Name() != name {
			t.Fatalf("registry name mismatch: %q vs %q", l.Name(), name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName must reject unknown names")
	}
}

func TestTrainValidation(t *testing.T) {
	data := trainData(t, 100, 16, 1)
	for _, l := range allLearners() {
		if _, err := l.Train(data, 100, 16, 0, 1); err == nil {
			t.Fatalf("%s: must reject bits=0", l.Name())
		}
		if _, err := l.Train(data, 100, 16, 65, 1); err == nil {
			t.Fatalf("%s: must reject bits>64", l.Name())
		}
		if _, err := l.Train(data[:10], 100, 16, 8, 1); err == nil {
			t.Fatalf("%s: must reject short data", l.Name())
		}
	}
	if _, err := (PCAH{}).Train(data, 100, 16, 32, 1); err == nil {
		t.Fatal("pcah: must reject bits > dim")
	}
	if _, err := (ITQ{}).Train(data, 100, 16, 32, 1); err == nil {
		t.Fatal("itq: must reject bits > dim")
	}
	if _, err := (KMH{SubspaceBits: 5}).Train(data, 100, 16, 12, 1); err == nil {
		t.Fatal("kmh: must reject bits not divisible by subspace bits")
	}
}

func TestAllHashersBasicContract(t *testing.T) {
	const n, d, bits = 300, 16, 8
	data := trainData(t, n, d, 2)
	for _, l := range allLearners() {
		h, err := l.Train(data, n, d, bits, 3)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		if h.Bits() != bits {
			t.Fatalf("%s: Bits=%d want %d", l.Name(), h.Bits(), bits)
		}
		costs := make([]float64, bits)
		for i := 0; i < 20; i++ {
			x := data[i*d : (i+1)*d]
			code := h.Code(x)
			code2 := h.QueryProjection(x, costs)
			if code != code2 {
				t.Fatalf("%s: Code and QueryProjection disagree: %b vs %b", l.Name(), code, code2)
			}
			if bits < 64 && code >= 1<<uint(bits) {
				t.Fatalf("%s: code %b uses more than %d bits", l.Name(), code, bits)
			}
			for bi, c := range costs {
				if c < 0 || math.IsNaN(c) {
					t.Fatalf("%s: negative/NaN flipping cost %g at bit %d", l.Name(), c, bi)
				}
			}
		}
	}
}

func TestHashersAreDeterministic(t *testing.T) {
	const n, d, bits = 200, 12, 8
	data := trainData(t, n, d, 4)
	for _, l := range allLearners() {
		h1, err1 := l.Train(data, n, d, bits, 5)
		h2, err2 := l.Train(data, n, d, bits, 5)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", l.Name(), err1, err2)
		}
		for i := 0; i < 30; i++ {
			x := data[i*d : (i+1)*d]
			if h1.Code(x) != h2.Code(x) {
				t.Fatalf("%s: training not deterministic", l.Name())
			}
		}
	}
}

func TestCodesPreserveSimilarity(t *testing.T) {
	// Near-duplicate vectors must agree on far more bits than random
	// pairs, for every learner: the defining property of
	// similarity-preserving hashing (paper §2.1).
	const n, d, bits = 1000, 16, 16
	data := trainData(t, n, d, 6)
	rng := rand.New(rand.NewSource(7))
	for _, l := range allLearners() {
		h, err := l.Train(data, n, d, bits, 8)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		var nearBits, randBits int
		const trials = 200
		for i := 0; i < trials; i++ {
			a := rng.Intn(n)
			x := data[a*d : (a+1)*d]
			// Perturb slightly.
			y := make([]float32, d)
			for j := range y {
				y[j] = x[j] + float32(rng.NormFloat64()*0.01)
			}
			nearBits += popcount(h.Code(x) ^ h.Code(y))
			b := rng.Intn(n)
			randBits += popcount(h.Code(x) ^ h.Code(data[b*d:(b+1)*d]))
		}
		if nearBits*3 > randBits {
			t.Fatalf("%s: near pairs differ in %d bits vs %d for random pairs", l.Name(), nearBits, randBits)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestProjHasherCostsMatchProjection(t *testing.T) {
	const n, d, bits = 300, 12, 8
	data := trainData(t, n, d, 9)
	h, err := (PCAH{}).Train(data, n, d, bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	ph := h.(*projHasher)
	proj := make([]float64, bits)
	costs := make([]float64, bits)
	for i := 0; i < 20; i++ {
		x := data[i*d : (i+1)*d]
		ph.Project(x, proj)
		code := h.QueryProjection(x, costs)
		for b := 0; b < bits; b++ {
			if math.Abs(costs[b]-math.Abs(proj[b])) > 1e-12 {
				t.Fatalf("cost[%d]=%g |proj|=%g", b, costs[b], math.Abs(proj[b]))
			}
			wantBit := proj[b] >= 0
			gotBit := code&(1<<uint(b)) != 0
			if wantBit != gotBit {
				t.Fatalf("bit %d: sign %v but code bit %v", b, wantBit, gotBit)
			}
		}
	}
}

func TestITQReducesQuantizationError(t *testing.T) {
	// ITQ's rotation must not increase the quantization error relative
	// to plain PCAH (that is its objective).
	const n, d, bits = 800, 16, 10
	data := trainData(t, n, d, 10)
	pcah, err := (PCAH{}).Train(data, n, d, bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	itq, err := (ITQ{Iterations: 30}).Train(data, n, d, bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	qerr := func(h Hasher) float64 {
		ph := h.(*projHasher)
		proj := make([]float64, bits)
		var e float64
		for i := 0; i < n; i++ {
			ph.Project(data[i*d:(i+1)*d], proj)
			for _, v := range proj {
				s := -1.0
				if v >= 0 {
					s = 1
				}
				e += (v - s) * (v - s)
			}
		}
		return e
	}
	if qerr(itq) > qerr(pcah)*1.001 {
		t.Fatalf("ITQ error %g exceeds PCAH error %g", qerr(itq), qerr(pcah))
	}
}

func TestPCAHMatrixRowsOrthonormal(t *testing.T) {
	const n, d, bits = 400, 12, 6
	data := trainData(t, n, d, 11)
	h, err := (PCAH{}).Train(data, n, d, bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := h.(*projHasher).Matrix()
	g := vecmath.Mul(m, m.T())
	for i := 0; i < bits; i++ {
		for j := 0; j < bits; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(g.At(i, j)-want) > 1e-8 {
				t.Fatalf("PCAH rows not orthonormal: G[%d][%d]=%g", i, j, g.At(i, j))
			}
		}
	}
}

func TestITQMatrixRowsOrthonormal(t *testing.T) {
	// H = Rᵀ·E with R orthogonal and E orthonormal rows, so H's rows
	// must be orthonormal too: this makes σ_max(H)=1, i.e. Theorem 1's
	// M = 1 for ITQ.
	const n, d, bits = 400, 12, 6
	data := trainData(t, n, d, 12)
	h, err := (ITQ{Iterations: 10}).Train(data, n, d, bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	ph := h.(*projHasher)
	if sn := SpectralNormBound(ph); math.Abs(sn-1) > 1e-8 {
		t.Fatalf("ITQ spectral norm %g, want 1", sn)
	}
}

// Theorem 2 property test: µ·QD(q,b(o)) ≤ ‖o−q‖ for random query/item
// pairs, for all projection hashers, with µ = 1/(M·√m).
func TestTheorem2LowerBound(t *testing.T) {
	const n, d, bits = 500, 12, 8
	data := trainData(t, n, d, 13)
	for _, l := range []Learner{LSH{}, PCAH{}, ITQ{Iterations: 10}, SSH{Pairs: 100}} {
		h, err := l.Train(data, n, d, bits, 14)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		ph := h.(*projHasher)
		mu := 1 / (SpectralNormBound(ph) * math.Sqrt(bits))
		costs := make([]float64, bits)
		f := func(qi, oi uint16) bool {
			q := data[int(qi%n)*d : (int(qi%n)+1)*d]
			o := data[int(oi%n)*d : (int(oi%n)+1)*d]
			codeQ := h.QueryProjection(q, costs)
			codeO := h.Code(o)
			var qd float64
			diff := codeQ ^ codeO
			for b := 0; b < bits; b++ {
				if diff&(1<<uint(b)) != 0 {
					qd += costs[b]
				}
			}
			return mu*qd <= vecmath.L2(q, o)+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: Theorem 2 violated: %v", l.Name(), err)
		}
	}
}

func TestKMHQueryCostsSemantics(t *testing.T) {
	// For KMH, flipping cost of bit i must equal the distance increase
	// of re-quantizing to the bit-flipped codeword.
	const n, d, bits = 400, 16, 8
	data := trainData(t, n, d, 15)
	h, err := (KMH{SubspaceBits: 4, Iterations: 8}).Train(data, n, d, bits, 16)
	if err != nil {
		t.Fatal(err)
	}
	kh := h.(*kmhHasher)
	costs := make([]float64, bits)
	for i := 0; i < 30; i++ {
		q := data[i*d : (i+1)*d]
		code := h.QueryProjection(q, costs)
		for s, sub := range kh.subs {
			qs := q[sub.offset : sub.offset+sub.dims]
			k := 1 << uint(kh.bitsPerSS)
			idx := int(code>>uint(s*kh.bitsPerSS)) & (k - 1)
			base := vecmath.L2(qs, sub.centroids[idx*sub.dims:(idx+1)*sub.dims])
			for b := 0; b < kh.bitsPerSS; b++ {
				flipped := idx ^ (1 << uint(b))
				want := vecmath.L2(qs, sub.centroids[flipped*sub.dims:(flipped+1)*sub.dims]) - base
				if math.Abs(costs[s*kh.bitsPerSS+b]-want) > 1e-9 {
					t.Fatalf("subspace %d bit %d: cost %g want %g", s, b, costs[s*kh.bitsPerSS+b], want)
				}
			}
		}
	}
}

func TestKMHCodeIsNearestCodeword(t *testing.T) {
	const n, d, bits = 300, 8, 8
	data := trainData(t, n, d, 17)
	h, err := (KMH{SubspaceBits: 2, Iterations: 8}).Train(data, n, d, bits, 18)
	if err != nil {
		t.Fatal(err)
	}
	kh := h.(*kmhHasher)
	for i := 0; i < 20; i++ {
		x := data[i*d : (i+1)*d]
		code := h.Code(x)
		for s, sub := range kh.subs {
			k := 1 << uint(kh.bitsPerSS)
			idx := int(code>>uint(s*kh.bitsPerSS)) & (k - 1)
			xs := x[sub.offset : sub.offset+sub.dims]
			best, _ := vecmath.PackCenters(sub.centroids, k, sub.dims).Nearest(xs)
			if idx != best {
				t.Fatalf("subspace %d: code index %d but nearest codeword %d", s, idx, best)
			}
		}
	}
}

func TestSHBitsUseLowestFrequencies(t *testing.T) {
	const n, d, bits = 500, 12, 8
	data := trainData(t, n, d, 19)
	h, err := (SH{}).Train(data, n, d, bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh := h.(*shHasher)
	if len(sh.funcs) != bits {
		t.Fatalf("%d eigenfunctions, want %d", len(sh.funcs), bits)
	}
	for i := 1; i < bits; i++ {
		if sh.funcs[i].eig < sh.funcs[i-1].eig {
			t.Fatal("eigenfunctions not sorted by eigenvalue")
		}
	}
	// The very first eigenfunction must be the k=1 mode of the
	// direction with the widest projected range (smallest eigenvalue).
	if sh.funcs[0].k != 1 {
		t.Fatalf("first eigenfunction has mode %d, want 1", sh.funcs[0].k)
	}
}

func TestSHProjectionInUnitRange(t *testing.T) {
	// Φ values are sines, so flipping costs must lie in [0,1].
	const n, d, bits = 300, 10, 8
	data := trainData(t, n, d, 20)
	h, err := (SH{}).Train(data, n, d, bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, bits)
	for i := 0; i < 50; i++ {
		h.QueryProjection(data[i*d:(i+1)*d], costs)
		for b, c := range costs {
			if c < 0 || c > 1+1e-12 {
				t.Fatalf("SH cost[%d]=%g outside [0,1]", b, c)
			}
		}
	}
}

func TestCodeString(t *testing.T) {
	if s := CodeString(0b1011, 6); s != "110100" {
		t.Fatalf("CodeString = %q", s)
	}
}

func TestLSHIgnoresDataBeyondMean(t *testing.T) {
	// Two different datasets with the same mean must produce identical
	// LSH hashers (same seed): LSH is data-oblivious by definition.
	d1 := trainData(t, 100, 8, 21)
	d2 := make([]float32, len(d1))
	// Mirror around the mean: same mean, different data.
	mean := meanOf(d1, 100, 8)
	for i := 0; i < 100; i++ {
		for j := 0; j < 8; j++ {
			d2[i*8+j] = float32(2*mean[j]) - d1[i*8+j]
		}
	}
	h1, _ := (LSH{}).Train(d1, 100, 8, 8, 22)
	h2, _ := (LSH{}).Train(d2, 100, 8, 8, 22)
	x := d1[:8]
	if h1.Code(x) != h2.Code(x) {
		t.Fatal("LSH must depend on the data only through its mean")
	}
}
