package vecmath

import "math"

// Centers is a codebook of k centroids of dimension d packed for the
// nearest-centroid kernel, the inner loop of k-means and of PQ/KMH
// encoding. The centroids sit in blocks of four, dimension-major inside
// a block — packed[b][j][l] is coordinate j of centroid 4b+l — so one
// vector load fetches coordinate j of four centroids. The last block is
// padded with +Inf lanes, whose distance is +Inf or NaN and so never
// wins. The zero value is empty; Pack fills it.
type Centers struct {
	k, d   int
	packed []float32
}

// PackCenters packs the k×d row-major centers into a new Centers.
func PackCenters(centers []float32, k, d int) *Centers {
	c := new(Centers)
	c.Pack(centers, k, d)
	return c
}

// Pack repacks c from the k×d row-major centers, reusing c's buffer
// when it is large enough (k-means repacks once per Lloyd iteration).
func (c *Centers) Pack(centers []float32, k, d int) {
	if k < 1 || d < 1 || len(centers) != k*d {
		panic("vecmath: PackCenters shape mismatch")
	}
	size := (k + 3) / 4 * 4 * d
	if cap(c.packed) < size {
		c.packed = make([]float32, size)
	}
	c.k, c.d, c.packed = k, d, c.packed[:size]
	inf := float32(math.Inf(1))
	for i := 0; i < size/d; i++ {
		b, l := i/4, i%4
		blk := c.packed[b*4*d : (b+1)*4*d]
		if i >= k {
			for j := 0; j < d; j++ {
				blk[j*4+l] = inf
			}
			continue
		}
		for j, v := range centers[i*d : (i+1)*d] {
			blk[j*4+l] = v
		}
	}
}

// Nearest returns the index of the centroid nearest to x in squared
// Euclidean distance, and that distance.
//
// Each centroid's distance is one sequential float64 chain,
// s += float64(diff*diff) for j = 0..d-1, and the winner is the first
// index with the smallest distance (a strict < scan), so the result,
// distance included, is bit-identical to a plain row-by-row scan of the
// unpacked centers. A centroid whose distance is NaN never wins; when
// none has a distance below +Inf the result is (0, +Inf).
//
// On amd64 with AVX2 the sums run in assembly (kernels_amd64.s), one
// centroid per float64 lane, with separate multiply and add (no FMA);
// elsewhere nearestGeneric runs the same lanes in Go.
func (c *Centers) Nearest(x []float32) (best int, dist float64) {
	if len(x) != c.d {
		panic("vecmath: Nearest shape mismatch")
	}
	if !useAVX2 {
		return nearestGeneric(x, c.packed, c.k)
	}
	var mins [4]float64
	var blks [4]int64
	nearestAVX2(x, c.packed, &mins, &blks)
	// Lane l holds the first-index minimum over centroids 4b+l; reduce
	// by (distance, index). Lanes that never took a value stay at +Inf
	// and cannot displace the (0, +Inf) start.
	best, dist = 0, math.Inf(1)
	for l, m := range mins {
		i := 4*int(blks[l]) + l
		if m < dist || (m == dist && i < best) {
			best, dist = i, m
		}
	}
	return best, dist
}

// nearestGeneric is Nearest in Go: four accumulators, one per centroid
// of a block, each the sequential chain of the row scan. It is the
// kernel off amd64 and under the purego tag, and the assembly's oracle
// in tests. The float64(d*d) conversions forbid FMA fusion.
func nearestGeneric(x, packed []float32, k int) (best int, dist float64) {
	d := len(x)
	best, dist = 0, math.Inf(1)
	for b := 0; 4*b < k; b++ {
		blk := packed[b*4*d : (b+1)*4*d]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			xj := float64(v)
			c := blk[j*4 : j*4+4 : j*4+4]
			d0 := xj - float64(c[0])
			d1 := xj - float64(c[1])
			d2 := xj - float64(c[2])
			d3 := xj - float64(c[3])
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
		if s0 < dist {
			best, dist = 4*b, s0
		}
		if s1 < dist {
			best, dist = 4*b+1, s1
		}
		if s2 < dist {
			best, dist = 4*b+2, s2
		}
		if s3 < dist {
			best, dist = 4*b+3, s3
		}
	}
	return best, dist
}
