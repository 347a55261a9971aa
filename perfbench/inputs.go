package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"gqr/internal/dataset"
)

// k is the neighbor count every workload asks for.
const k = 10

// corpus is one workload's generated inputs: the base block the index
// is built from, the query pool the load draws from, and spare rows
// that writes insert.
type corpus struct {
	dim   int
	base  []float32
	pool  []float32
	extra []float32
}

func (c *corpus) n() int                  { return len(c.base) / c.dim }
func (c *corpus) npool() int              { return len(c.pool) / c.dim }
func (c *corpus) baseVec(i int) []float32 { return c.base[i*c.dim : (i+1)*c.dim] }
func (c *corpus) query(i int) []float32   { return c.pool[i*c.dim : (i+1)*c.dim] }
func (c *corpus) extraVec(i int) []float32 {
	return c.extra[i*c.dim : (i+1)*c.dim]
}

// baseOf returns base row id, or nil when id is not a base row.
func (c *corpus) baseOf(id int) []float32 {
	if id < 0 || id >= c.n() {
		return nil
	}
	return c.baseVec(id)
}

const (
	// datasetSeed fixes each workload's dataset: the mixture and its
	// base rows are the same for every run, as a standard ANN dataset
	// would be. The run seed draws the query pool and the spare rows
	// from held-out rows of the same mixture, and every order and
	// schedule.
	datasetSeed = 1
	// heldOut is how many held-out rows the query pool is drawn from.
	heldOut = 4096
)

// generate returns a workload's inputs: n base rows, npool query rows
// and nextra spare rows, all from one Gaussian mixture (16 clusters,
// latent dimension 12) generated from datasetSeed. Queries and spares
// are not in the base; seed picks which held-out rows they are and in
// what order.
func generate(seed int64, n, npool, nextra, dim int) *corpus {
	ds := dataset.Generate(dataset.GeneratorSpec{
		N: n + heldOut + nextra, Dim: dim, Clusters: 16, LatentDim: 12, Seed: datasetSeed,
	})
	v := ds.Vectors
	row := func(i int) []float32 { return v[i*dim : (i+1)*dim] }
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{
		dim: dim,
		// Capped: Build keeps the base block by reference and Add
		// appends to it, which must not write over the held-out rows.
		base:  v[: n*dim : n*dim],
		pool:  make([]float32, 0, npool*dim),
		extra: make([]float32, 0, nextra*dim),
	}
	for _, i := range rng.Perm(heldOut)[:npool] {
		c.pool = append(c.pool, row(n+i)...)
	}
	for _, i := range rng.Perm(nextra) {
		c.extra = append(c.extra, row(n+heldOut+i)...)
	}
	return c
}

// sqDist is the exact squared Euclidean distance in float64: the
// benchmark's own oracle, independent of the program's kernels.
func sqDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// sqDistBounded is sqDist, except that it may stop early and return a
// partial sum once that reaches bound: the partial sums only grow, so a
// row it stops on is farther than bound all the same.
func sqDistBounded(a, b []float32, bound float64) float64 {
	var s float64
	i := 0
	for ; i+16 <= len(a); i += 16 {
		var s0, s1, s2, s3 float64
		for j := i; j < i+16; j += 4 {
			d0 := float64(a[j]) - float64(b[j])
			d1 := float64(a[j+1]) - float64(b[j+1])
			d2 := float64(a[j+2]) - float64(b[j+2])
			d3 := float64(a[j+3]) - float64(b[j+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		s += (s0 + s1) + (s2 + s3)
		if s >= bound {
			return s
		}
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// bruteForce returns the exact k nearest rows of rows (n×dim) to each
// query, ids ascending by distance with ties broken by id. live, when
// non-nil, says which rows count. Queries are split over GOMAXPROCS
// workers.
func bruteForce(rows []float32, dim int, live func(int) bool, queries []float32) [][]int32 {
	nq := len(queries) / dim
	n := len(rows) / dim
	out := make([][]int32, nq)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			type cand struct {
				d  float64
				id int32
			}
			for qi := w; qi < nq; qi += workers {
				q := queries[qi*dim : (qi+1)*dim]
				best := make([]cand, 0, k+1)
				bound := math.Inf(1)
				for i := 0; i < n; i++ {
					if live != nil && !live(i) {
						continue
					}
					d := sqDistBounded(q, rows[i*dim:(i+1)*dim], bound)
					if d >= bound {
						continue
					}
					pos := sort.Search(len(best), func(j int) bool { return best[j].d > d })
					best = append(best, cand{})
					copy(best[pos+1:], best[pos:])
					best[pos] = cand{d, int32(i)}
					if len(best) > k {
						best = best[:k]
					}
					if len(best) == k {
						bound = best[k-1].d
					}
				}
				ids := make([]int32, len(best))
				for j, c := range best {
					ids[j] = c.id
				}
				out[qi] = ids
			}
		}(w)
	}
	wg.Wait()
	return out
}

// gtVersion names the ground-truth cache layout and generator settings;
// bump it when either changes so stale files are never read.
const gtVersion = 2

// groundTruth returns the exact top-k of every pool query over the
// base, computed off the clock and cached per workload and seed under
// dir. Brute force over the largest corpus takes seconds; the cache
// makes repeated runs with one seed cheap.
func groundTruth(dir, workload string, seed int64, c *corpus) ([][]int32, error) {
	path := filepath.Join(dir, "gt", fmt.Sprintf("%s-seed%d-n%d-q%d-v%d.bin", workload, seed, c.n(), c.npool(), gtVersion))
	if b, err := os.ReadFile(path); err == nil && len(b) == 4*k*c.npool() {
		gt := make([][]int32, c.npool())
		for qi := range gt {
			gt[qi] = make([]int32, k)
			for j := range gt[qi] {
				gt[qi][j] = int32(binary.LittleEndian.Uint32(b[4*(qi*k+j):]))
			}
		}
		return gt, nil
	}
	gt := bruteForce(c.base, c.dim, nil, c.pool)
	b := make([]byte, 0, 4*k*len(gt))
	for _, row := range gt {
		if len(row) != k {
			return gt, nil // too few rows to cache a full top-k
		}
		for _, id := range row {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("ground-truth cache: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, fmt.Errorf("ground-truth cache: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("ground-truth cache: %w", err)
	}
	return gt, nil
}
