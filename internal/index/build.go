package index

import (
	"fmt"
	"sync"
	"time"

	"gqr/internal/hash"
	"gqr/internal/vecmath"
)

// BuildTimings records the wall time of the three build stages: hasher
// training, item coding, and CSR core construction (freeze). Procs is
// the resolved worker bound the build ran with.
type BuildTimings struct {
	Train  time.Duration
	Code   time.Duration
	Freeze time.Duration
	Procs  int
}

// codeChunk is the number of items one coding task owns. Each chunk's
// codes are written to a disjoint region of the output, so the result
// is identical to the serial loop at any worker count.
const codeChunk = 1024

// codeItems computes every item's packed code for one hasher. Points
// are partitioned into fixed-size chunks fanned out over procs workers;
// codes[i] and ids[i] are each written by exactly one worker, so the
// output is bit-for-bit the serial loop's.
func codeItems(h hash.Hasher, data []float32, n, d, procs int) ([]uint64, []int32) {
	codes := make([]uint64, n)
	ids := make([]int32, n)
	vecmath.ParallelChunks(n, codeChunk, procs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			codes[i] = h.Code(data[i*d : (i+1)*d])
			ids[i] = int32(i)
		}
	})
	return codes, ids
}

// BuildP is Build with a worker bound: the T hashers train
// concurrently (independent seeds, seed+t·7919 exactly as Build), item
// coding fans out in fixed-size chunks, and each table's CSR core is
// then frozen serially. The learner's own kernels are bounded by the
// same procs via hash.WithProcs. Every stage partitions work so that
// each output element is produced by exactly one worker in serial
// accumulation order, so the index — hash codes, bucket layout,
// persisted bytes, search results — is bit-for-bit identical to
// Build's at any procs. procs <= 0 means GOMAXPROCS.
func BuildP(l hash.Learner, data []float32, n, d, bits, tables int, seed int64, procs int) (*Index, error) {
	if tables <= 0 {
		return nil, fmt.Errorf("index: need at least one table, got %d", tables)
	}
	procs = vecmath.Procs(procs)
	l = hash.WithProcs(l, procs)
	// Clip capacity: Add appends to Data and must not write into the
	// caller's spare capacity past the adopted block.
	idx := &Index{Dim: d, N: n, Data: data[:len(data):len(data)]}

	// Stage 1: train one hasher per table. Tables are independent
	// (distinct seeds), so they train concurrently; each Train call's
	// internal kernels are themselves bounded by procs.
	trainStart := time.Now()
	hashers := make([]hash.Hasher, tables)
	trainErrs := make([]error, tables)
	sem := make(chan struct{}, procs)
	var wg sync.WaitGroup
	for t := 0; t < tables; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			h, err := l.Train(data, n, d, bits, seed+int64(t)*7919)
			if err != nil {
				trainErrs[t] = fmt.Errorf("index: training table %d: %w", t, err)
				return
			}
			hashers[t] = h
		}(t)
	}
	wg.Wait()
	for _, err := range trainErrs {
		if err != nil {
			return nil, err
		}
	}
	idx.Timings.Train = time.Since(trainStart)

	// Stages 2+3 per table: chunked parallel coding, then serial CSR
	// freeze (sort + prefix sums; order-defined, partition-free). The
	// frozen cores form the index's first segment, covering all n items.
	cores := make([]*coreStore, 0, tables)
	for _, h := range hashers {
		codeStart := time.Now()
		codes, ids := codeItems(h, data, n, d, procs)
		idx.Timings.Code += time.Since(codeStart)

		freezeStart := time.Now()
		idx.Tables = append(idx.Tables, &Table{Hasher: h, tail: newTailStore()})
		cores = append(cores, buildCore(codes, ids))
		idx.Timings.Freeze += time.Since(freezeStart)
	}
	idx.segs = []*Segment{newSegment(cores, 0, n, n, 0)}
	idx.segSeq = 1
	idx.Timings.Procs = procs
	return idx, nil
}
