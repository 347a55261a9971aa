package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// argNearestRef is the row-major sequential scan the packed kernel
// replaced, kept as its oracle: centroid by centroid, one float64 chain
// per centroid, abandoning a centroid once its partial sum reaches the
// best so far. Partial sums never decrease (each term is ≥ 0 or NaN), so
// abandoning cannot change the winner or its distance.
func argNearestRef(x []float32, centers []float32, k, d int) (best int, bestDist float64) {
	if len(x) != d || len(centers) != k*d {
		panic("vecmath: argNearestRef shape mismatch")
	}
	bestDist = math.Inf(1)
	for c := 0; c < k; c++ {
		row := centers[c*d : (c+1)*d]
		var s float64
		for j, v := range row {
			diff := float64(x[j]) - float64(v)
			s += float64(diff * diff)
			if s >= bestDist {
				break
			}
		}
		if s < bestDist {
			bestDist = s
			best = c
		}
	}
	return best, bestDist
}

// checkNearest asserts that the dispatched kernel and the pure-Go one
// both return the reference scan's index and distance, bit for bit.
func checkNearest(t *testing.T, x, centers []float32, k, d int) {
	t.Helper()
	wantBest, wantDist := argNearestRef(x, centers, k, d)
	c := PackCenters(centers, k, d)
	gotBest, gotDist := c.Nearest(x)
	genBest, genDist := nearestGeneric(x, c.packed, k)
	for _, r := range []struct {
		name string
		best int
		dist float64
	}{{"dispatch", gotBest, gotDist}, {"generic", genBest, genDist}} {
		if r.best != wantBest || math.Float64bits(r.dist) != math.Float64bits(wantDist) {
			t.Fatalf("d=%d k=%d: %s = (%d, %v) want (%d, %v)\nx=%v",
				d, k, r.name, r.best, r.dist, wantBest, wantDist, x)
		}
	}
}

// specialFloat draws a coordinate for the kernel tests: Gaussian, small
// integers (exact ties), or a special value, by mode.
func specialFloat(rng *rand.Rand, mode int) float32 {
	switch mode {
	case 1:
		return float32(rng.Intn(3))
	case 2:
		switch rng.Intn(16) {
		case 0:
			return float32(math.NaN())
		case 1:
			return float32(math.Inf(1))
		case 2:
			return float32(math.Inf(-1))
		case 3:
			return math.SmallestNonzeroFloat32
		case 4:
			return -1e-40 // subnormal
		case 5:
			return math.MaxFloat32
		case 6:
			return 0
		}
	}
	return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
}

// nearestCase builds a query and a k×d codebook for mode, with a few
// duplicated centroids so exact ties between distinct indices occur.
func nearestCase(rng *rand.Rand, k, d, mode int) (x, centers []float32) {
	x = make([]float32, d)
	for j := range x {
		if mode == 2 && rng.Intn(4) != 0 {
			x[j] = float32(rng.NormFloat64()) // keep most of x finite
			continue
		}
		x[j] = specialFloat(rng, mode)
	}
	centers = make([]float32, k*d)
	for i := range centers {
		centers[i] = specialFloat(rng, mode)
	}
	for dup := 0; dup < k/4; dup++ {
		src, dst := rng.Intn(k), rng.Intn(k)
		copy(centers[dst*d:(dst+1)*d], centers[src*d:(src+1)*d])
	}
	return x, centers
}

// TestNearestCenterMatchesReference crosses every dimension count up to
// 70 with centroid counts on both sides of the four-centroid block and
// the four-block pass, in each value mode.
func TestNearestCenterMatchesReference(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 kernel on this platform: dispatch is the generic kernel")
	}
	rng := rand.New(rand.NewSource(31))
	for d := 1; d <= 70; d++ {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 20, 31, 33, 64, 67, 256} {
			for mode := 0; mode < 3; mode++ {
				x, centers := nearestCase(rng, k, d, mode)
				checkNearest(t, x, centers, k, d)
			}
		}
	}
}

// TestNearestCenterNoWinner: when every distance is NaN or +Inf the
// result is (0, +Inf), as for the reference scan.
func TestNearestCenterNoWinner(t *testing.T) {
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		x := []float32{float32(math.Inf(-1)), 1, 2}
		centers := make([]float32, 6*3)
		for i := range centers {
			centers[i] = v
		}
		checkNearest(t, x, centers, 6, 3)
		if best, dist := PackCenters(centers, 6, 3).Nearest(x); best != 0 || !math.IsInf(dist, 1) {
			t.Fatalf("centers all %v: got (%d, %v), want (0, +Inf)", v, best, dist)
		}
	}
}

// TestCentersRepack: Pack reuses a larger buffer and re-pads the last
// block, so a shrunken codebook never sees a stale centroid.
func TestCentersRepack(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var c Centers
	for _, k := range []int{9, 5, 12, 1} {
		const d = 6
		x, centers := nearestCase(rng, k, d, 0)
		c.Pack(centers, k, d)
		wantBest, wantDist := argNearestRef(x, centers, k, d)
		if best, dist := c.Nearest(x); best != wantBest || dist != wantDist {
			t.Fatalf("k=%d: (%d, %v) want (%d, %v)", k, best, dist, wantBest, wantDist)
		}
	}
}

// FuzzNearestCenter checks the dispatched kernel (AVX2 on amd64) and
// the pure-Go one against the reference scan bit for bit, index and
// distance, over d 1–130 and k 1–600, with NaN, ±Inf, subnormals,
// duplicate centroids and exact ties.
func FuzzNearestCenter(f *testing.F) {
	f.Add(uint8(8), uint16(64), int64(1), uint8(0))
	f.Add(uint8(1), uint16(1), int64(2), uint8(1))
	f.Add(uint8(16), uint16(255), int64(3), uint8(2))
	f.Add(uint8(129), uint16(599), int64(4), uint8(0))
	f.Add(uint8(3), uint16(6), int64(5), uint8(1))
	f.Add(uint8(64), uint16(17), int64(6), uint8(2))
	f.Fuzz(func(t *testing.T, dRaw uint8, kRaw uint16, seed int64, mode uint8) {
		d := 1 + int(dRaw)%130
		k := 1 + int(kRaw)%600
		rng := rand.New(rand.NewSource(seed))
		x, centers := nearestCase(rng, k, d, int(mode)%3)
		checkNearest(t, x, centers, k, d)
	})
}

// BenchmarkNearestCenter times one nearest-centroid search at the PQ,
// KMH and wide-codebook shapes: the reference row scan, the pure-Go
// packed kernel and the dispatched one.
func BenchmarkNearestCenter(b *testing.B) {
	for _, sh := range []struct{ d, k int }{{8, 64}, {8, 256}, {64, 256}} {
		rng := rand.New(rand.NewSource(int64(sh.d*1000 + sh.k)))
		centers := make([]float32, sh.k*sh.d)
		for i := range centers {
			centers[i] = float32(rng.NormFloat64())
		}
		xs := make([][]float32, 64)
		for i := range xs {
			xs[i] = make([]float32, sh.d)
			for j := range xs[i] {
				xs[i][j] = float32(rng.NormFloat64())
			}
		}
		c := PackCenters(centers, sh.k, sh.d)
		for _, kn := range []struct {
			name string
			fn   func(x []float32) (int, float64)
		}{
			{"ref", func(x []float32) (int, float64) { return argNearestRef(x, centers, sh.k, sh.d) }},
			{"generic", func(x []float32) (int, float64) { return nearestGeneric(x, c.packed, c.k) }},
			{"dispatch", c.Nearest},
		} {
			b.Run(fmt.Sprintf("d%dk%d/%s", sh.d, sh.k, kn.name), func(b *testing.B) {
				b.ReportAllocs()
				var sink int
				for i := 0; i < b.N; i++ {
					best, _ := kn.fn(xs[i%len(xs)])
					sink += best
				}
				benchSink = float64(sink)
			})
		}
	}
}
