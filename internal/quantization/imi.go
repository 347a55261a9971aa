package quantization

import (
	"fmt"
	"math/rand"
	"sort"

	"gqr/internal/cluster"
	"gqr/internal/vecmath"
)

// IMI is the inverted multi-index (Babenko & Lempitsky), the querying
// structure that makes OPQ competitive (§6.5): the (rotated) space is
// split into two halves, each with a coarse codebook of K centroids;
// every item lands in one of K² cells. A query visits cells in
// ascending du[i]+dv[j] — the multi-sequence algorithm — so candidates
// arrive roughly nearest-cell-first, and items are ranked by asymmetric
// distance (ADC) against the fine OPQ codebooks.
type IMI struct {
	OPQ *OPQ
	K   int

	halfOff   [2]int
	halfWidth [2]int
	coarse    [2][]float32        // K×width coarse codebooks per half
	packed    [2]*vecmath.Centers // coarse codebooks packed for assignment

	cells     [][]int32 // K*K inverted lists
	fineCodes []uint16  // n×M fine codes for ADC
	n         int
}

// IMIConfig parameterizes BuildIMI.
type IMIConfig struct {
	// M and KFine shape the fine (ADC) product quantizer.
	M, KFine int
	// KCoarse is the number of coarse centroids per half; the inverted
	// multi-index has KCoarse² cells.
	KCoarse int
	// OPQIters and KMeansIters bound the alternating OPQ updates and
	// the Lloyd iterations inside every k-means call.
	OPQIters, KMeansIters int
	// TrainSample caps the number of vectors used for training (a
	// strided sample); 0 trains on everything. Encoding and cell
	// assignment always cover the full dataset.
	TrainSample int
	Seed        int64
}

// BuildIMI trains the full OPQ+IMI system over the n×d block:
// OPQ rotation + fine codebooks, coarse codebooks per half, and the
// KCoarse² inverted lists.
func BuildIMI(data []float32, n, d int, cfg IMIConfig) (*IMI, error) {
	if d < 2 {
		return nil, fmt.Errorf("quantization: IMI needs at least 2 dims")
	}
	train, trainN := data, n
	if cfg.TrainSample > 0 && cfg.TrainSample < n {
		stride := n / cfg.TrainSample
		trainN = cfg.TrainSample
		train = make([]float32, trainN*d)
		for i := 0; i < trainN; i++ {
			copy(train[i*d:(i+1)*d], data[i*stride*d:(i*stride+1)*d])
		}
	}
	opq, err := TrainOPQ(train, trainN, d, cfg.M, cfg.KFine, cfg.OPQIters, cfg.KMeansIters, cfg.Seed)
	if err != nil {
		return nil, err
	}
	kCoarse := cfg.KCoarse
	imi := &IMI{OPQ: opq, K: kCoarse, n: n}
	imi.halfOff = [2]int{0, d / 2}
	imi.halfWidth = [2]int{d / 2, d - d/2}

	// Coarse codebooks per half, trained on the rotated sample.
	rotTrain := make([]float32, trainN*d)
	for i := 0; i < trainN; i++ {
		opq.Rotate(train[i*d:(i+1)*d], rotTrain[i*d:(i+1)*d])
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for h := 0; h < 2; h++ {
		w := imi.halfWidth[h]
		sub := make([]float32, trainN*w)
		for i := 0; i < trainN; i++ {
			copy(sub[i*w:(i+1)*w], rotTrain[i*d+imi.halfOff[h]:i*d+imi.halfOff[h]+w])
		}
		cb, err := cluster.KMeans(sub, trainN, w, kCoarse, cfg.KMeansIters, rng)
		if err != nil {
			return nil, fmt.Errorf("quantization: coarse codebook %d: %w", h, err)
		}
		imi.coarse[h] = cb
		imi.packed[h] = vecmath.PackCenters(cb, kCoarse, w)
	}

	// Rotate the whole dataset once for assignment and encoding.
	rotated := make([]float32, n*d)
	for i := 0; i < n; i++ {
		opq.Rotate(data[i*d:(i+1)*d], rotated[i*d:(i+1)*d])
	}

	// Assign items to cells and encode fine codes.
	imi.cells = make([][]int32, kCoarse*kCoarse)
	imi.fineCodes = make([]uint16, 0, n*cfg.M)
	for i := 0; i < n; i++ {
		row := rotated[i*d : (i+1)*d]
		u, _ := imi.packed[0].Nearest(row[imi.halfOff[0] : imi.halfOff[0]+imi.halfWidth[0]])
		v, _ := imi.packed[1].Nearest(row[imi.halfOff[1] : imi.halfOff[1]+imi.halfWidth[1]])
		cell := u*kCoarse + v
		imi.cells[cell] = append(imi.cells[cell], int32(i))
		imi.fineCodes = opq.PQ.Encode(row, imi.fineCodes)
	}
	return imi, nil
}

// FineCode returns item i's fine PQ code.
func (imi *IMI) FineCode(i int32) []uint16 {
	m := imi.OPQ.PQ.M
	return imi.fineCodes[int(i)*m : (int(i)+1)*m]
}

// CellSequence traverses cells in ascending du+dv for the rotated query
// (the multi-sequence algorithm). Next returns the cell's item list and
// its score; ok=false when all K² cells have been visited.
type CellSequence struct {
	imi    *IMI
	du, dv []float64 // sorted coarse distances
	su, sv []int     // sorted order -> centroid index
	heap   []msNode
	pushed map[int]bool
}

type msNode struct {
	a, b int
	dist float64
}

// NewCellSequence prepares the traversal for a query (in original,
// unrotated space).
func (imi *IMI) NewCellSequence(q []float32) *CellSequence {
	d := imi.OPQ.PQ.Dim
	rot := make([]float32, d)
	imi.OPQ.Rotate(q, rot)
	cs := &CellSequence{imi: imi, pushed: make(map[int]bool)}
	for h := 0; h < 2; h++ {
		w := imi.halfWidth[h]
		qs := rot[imi.halfOff[h] : imi.halfOff[h]+w]
		dists := make([]float64, imi.K)
		for c := 0; c < imi.K; c++ {
			dists[c] = vecmath.SquaredL2(qs, imi.coarse[h][c*w:(c+1)*w])
		}
		order := make([]int, imi.K)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			if dists[order[i]] != dists[order[j]] {
				return dists[order[i]] < dists[order[j]]
			}
			return order[i] < order[j]
		})
		sorted := make([]float64, imi.K)
		for i, c := range order {
			sorted[i] = dists[c]
		}
		if h == 0 {
			cs.du, cs.su = sorted, order
		} else {
			cs.dv, cs.sv = sorted, order
		}
	}
	cs.push(0, 0)
	return cs
}

func (cs *CellSequence) push(a, b int) {
	if a >= cs.imi.K || b >= cs.imi.K {
		return
	}
	key := a*cs.imi.K + b
	if cs.pushed[key] {
		return
	}
	cs.pushed[key] = true
	n := msNode{a: a, b: b, dist: cs.du[a] + cs.dv[b]}
	cs.heap = append(cs.heap, n)
	i := len(cs.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if cs.heap[p].dist <= cs.heap[i].dist {
			break
		}
		cs.heap[p], cs.heap[i] = cs.heap[i], cs.heap[p]
		i = p
	}
}

// Next returns the next cell's items (possibly empty) and its
// du+dv score.
func (cs *CellSequence) Next() (items []int32, score float64, ok bool) {
	if len(cs.heap) == 0 {
		return nil, 0, false
	}
	top := cs.heap[0]
	last := len(cs.heap) - 1
	cs.heap[0] = cs.heap[last]
	cs.heap = cs.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && cs.heap[l].dist < cs.heap[smallest].dist {
			smallest = l
		}
		if r < last && cs.heap[r].dist < cs.heap[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		cs.heap[i], cs.heap[smallest] = cs.heap[smallest], cs.heap[i]
		i = smallest
	}
	cs.push(top.a+1, top.b)
	cs.push(top.a, top.b+1)

	cell := cs.su[top.a]*cs.imi.K + cs.sv[top.b]
	return cs.imi.cells[cell], top.dist, true
}

// Retrieve collects candidate item ids cell by cell until at least
// budget candidates are gathered (or all cells visited), in traversal
// order.
func (imi *IMI) Retrieve(q []float32, budget int) []int32 {
	cs := imi.NewCellSequence(q)
	var out []int32
	for len(out) < budget {
		items, _, ok := cs.Next()
		if !ok {
			break
		}
		out = append(out, items...)
	}
	return out
}

// SearchADC retrieves ~budget candidates and returns the k best by
// asymmetric distance against the fine codebooks, in ascending ADC
// order (ties by id).
func (imi *IMI) SearchADC(q []float32, k, budget int) []int32 {
	d := imi.OPQ.PQ.Dim
	rot := make([]float32, d)
	imi.OPQ.Rotate(q, rot)
	table := imi.OPQ.PQ.ADCTable(rot)
	cands := imi.Retrieve(q, budget)
	type scored struct {
		id   int32
		dist float64
	}
	all := make([]scored, len(cands))
	for i, id := range cands {
		all[i] = scored{id: id, dist: imi.OPQ.PQ.ADCDist(table, imi.FineCode(id))}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}
