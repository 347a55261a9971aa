// Package index implements the storage layer of the reproduction: hash
// tables that map packed m-bit binary codes to buckets of item ids, with
// multi-table support (paper §6.3.5) and occupancy statistics used by
// the experiments (the paper reports bucket counts per dataset in §6.2).
//
// Storage is LSM-shaped: every table has one mutable memtable (the
// delta tail of csr.go) that Add feeds, and the index holds a list of
// frozen immutable Segments — each a CSR core per table covering a
// contiguous id range. Sealing the memtable into a new segment is
// O(memtable); folding segments together is the background merger's
// job (segment.go), so snapshot publication never does O(core) work.
package index

import (
	"fmt"
	mathbits "math/bits"
	"sort"
	"sync/atomic"

	"gqr/internal/hash"
	"gqr/internal/quantization"
)

// popcount counts set bits (named to avoid shadowing by the `bits`
// code-length parameters used throughout this package).
func popcount(x uint64) int { return mathbits.OnesCount64(x) }

// Table is a single hash table's mutable half: the hasher plus the
// memtable posting lists (the frozen half lives in the index's segment
// list, one core per table per segment).
type Table struct {
	Hasher hash.Hasher
	tail   *tailStore
}

// freeze returns an immutable view of the table's memtable. Cost
// O(memtable).
func (t *Table) freeze() *Table {
	return &Table{Hasher: t.Hasher, tail: t.tail.clone()}
}

// BucketRef is a handle to one bucket's storage across the LSM
// hierarchy: one posting-list slice per frozen segment that holds the
// code (oldest first), plus the memtable slice. Iterating Segs in order
// and then Tail visits the bucket's ids in ascending order (each
// segment covers a strictly later id range, and memtable ids are the
// newest of all). The slices are views into frozen storage; callers
// must treat them as read-only.
type BucketRef struct {
	Segs [][]int32
	Tail []int32
}

// Len returns the number of ids the bucket holds.
func (r *BucketRef) Len() int {
	n := len(r.Tail)
	for _, s := range r.Segs {
		n += len(s)
	}
	return n
}

// merge policy constants: PlanMerge fires on a run of at least
// mergeFanout adjacent segments whose item counts are within a factor
// of mergeRatio of each other (size-tiered compaction — merging a huge
// segment with a tiny one wastes O(huge) work for O(tiny) gain).
const (
	mergeFanout = 4
	mergeRatio  = 4
)

// tombSet tracks deleted ids. The frozen half is a dense bitmap over
// the contiguous id space, shared by pointer across snapshots exactly
// like the CSR cores; recent deletes sit in a small delta map that
// foldTombs copies into a fresh bitmap (copy-on-write) before a
// snapshot publishes. dead counts every id ever deleted; pending counts
// the dead ids still present in some posting list — seal and merge
// purge them, decrementing pending, so pending==0 means searches pay
// nothing for past deletes.
type tombSet struct {
	words   []uint64
	delta   map[int32]struct{}
	dead    int
	pending int
}

// Index is a multi-table hash index over one dataset. Vectors are held
// by reference; the index adds only codes and id lists.
type Index struct {
	Dim    int
	N      int
	Data   []float32
	Tables []*Table

	// Meta is the optional per-item metadata word (one uint64 per id,
	// filter/tag-mask input). nil until the first nonzero word arrives;
	// once allocated it is kept exactly N long.
	Meta []uint64

	// Quant is the optional serving quantizer behind the re-ranking
	// stage; Codes is its id-aligned code slab (N·M bytes, like Data but
	// one byte per subspace). Both are shared by reference across
	// snapshots: appends only ever write past a published view's N, and
	// ids are never reused, so tombstone purges need no code movement —
	// a dead id's code simply stops being referenced by posting lists,
	// exactly like its vector.
	Quant  *quantization.Reranker
	QCodes []uint8
	// RerankFactor is the serving default for the re-ranking stage's
	// survivor budget (exact evaluations per query = factor × k); it is
	// persisted with the quantizer so a loaded index serves identically.
	RerankFactor int

	// encRot is the writer-side rotation scratch for per-Add encoding
	// (callers serialize mutation, so one buffer suffices).
	encRot []float32

	tombs tombSet

	// segs are the frozen segments, ordered by ascending MinID and
	// covering [0, N-memtable) contiguously.
	segs   []*Segment
	segSeq uint64

	// Timings records how long each build stage took (zero for indexes
	// assembled by loaders rather than Build/BuildP).
	Timings BuildTimings

	seals  int
	merges int

	// released latches the first Release of a snapshot view so it drops
	// its segment references exactly once. Idempotence must not come
	// from mutating segs: in-flight searches that loaded the old
	// snapshot still range over the slice.
	released atomic.Bool
}

// NewFromBuckets assembles an index from explicit per-table bucket
// maps, preserving each bucket's id order (one frozen segment covering
// all n items). Used by loaders and tests; the querying hot path never
// sees the maps.
func NewFromBuckets(hashers []hash.Hasher, buckets []map[uint64][]int32, data []float32, n, dim int) *Index {
	ix := &Index{Dim: dim, N: n, Data: data[:len(data):len(data)]} // see BuildP
	cores := make([]*coreStore, len(hashers))
	for t, h := range hashers {
		ix.Tables = append(ix.Tables, &Table{Hasher: h, tail: newTailStore()})
		cores[t] = coreFromBuckets(buckets[t])
	}
	ix.segs = []*Segment{newSegment(cores, 0, n, n, 0)}
	ix.segSeq = 1
	return ix
}

func coreFromBuckets(buckets map[uint64][]int32) *coreStore {
	codes := make([]uint64, 0, len(buckets))
	for c := range buckets {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	offsets := make([]uint32, 1, len(codes)+1)
	var ids []int32
	for _, c := range codes {
		ids = append(ids, buckets[c]...)
		offsets = append(offsets, uint32(len(ids)))
	}
	return newCoreStore(codes, offsets, ids)
}

// Build trains one hasher per table (distinct seeds) with the given
// learner and constructs the tables. This is the paper's multi-hash-
// table strategy: more tables raise recall per probed bucket at the
// cost of memory (§6.3.5). It is the serial reference of BuildP, which
// produces a bit-for-bit identical index at any worker count.
func Build(l hash.Learner, data []float32, n, d, bits, tables int, seed int64) (*Index, error) {
	return BuildP(l, data, n, d, bits, tables, seed, 1)
}

// Vector returns item i's vector.
func (ix *Index) Vector(i int32) []float32 {
	return ix.Data[int(i)*ix.Dim : (int(i)+1)*ix.Dim]
}

// Add appends one vector to the index, hashing it into every table's
// memtable, and returns its new id. The hash functions are NOT
// retrained: like any L2H system, the learned functions are assumed to
// be trained on a representative sample. Callers that precompute
// per-table views (the sorting querying methods) must refresh them
// afterwards.
func (ix *Index) Add(vec []float32) (int32, error) {
	return ix.AddMeta(vec, 0)
}

// AddMeta appends one vector with a metadata word. A zero word costs
// nothing until some item carries a nonzero one; the first nonzero word
// allocates the meta slab with zeros for every earlier id.
func (ix *Index) AddMeta(vec []float32, meta uint64) (int32, error) {
	if len(vec) != ix.Dim {
		return 0, fmt.Errorf("index: vector dim %d != index dim %d", len(vec), ix.Dim)
	}
	id := int32(ix.N)
	ix.Data = append(ix.Data, vec...)
	if meta != 0 && ix.Meta == nil {
		ix.Meta = make([]uint64, ix.N, ix.N+1)
	}
	if ix.Meta != nil {
		ix.Meta = append(ix.Meta, meta)
	}
	if ix.Quant != nil {
		m := ix.Quant.M()
		ix.QCodes = append(ix.QCodes, make([]uint8, m)...)
		ix.Quant.EncodeTo(vec, ix.QCodes[len(ix.QCodes)-m:], ix.encRot)
	}
	ix.N++
	for _, t := range ix.Tables {
		t.tail.add(t.Hasher.Code(vec), id)
	}
	return id, nil
}

// MetaOf returns item id's metadata word (zero when no slab exists).
func (ix *Index) MetaOf(id int32) uint64 {
	if ix.Meta == nil || int(id) >= len(ix.Meta) {
		return 0
	}
	return ix.Meta[id]
}

// SetMeta replaces the whole metadata slab. len(meta) must be N (or
// meta nil to drop the slab). The caller hands over ownership.
func (ix *Index) SetMeta(meta []uint64) error {
	if meta != nil && len(meta) != ix.N {
		return fmt.Errorf("index: meta slab has %d words, index has %d items", len(meta), ix.N)
	}
	ix.Meta = meta
	return nil
}

// MetaSlab returns the metadata slab (nil when no item carries one).
// Read-only for snapshot views.
func (ix *Index) MetaSlab() []uint64 { return ix.Meta }

// AttachQuantizer installs a trained serving quantizer with its
// pre-encoded code slab (len N·M). Subsequent Adds keep the slab
// id-aligned by encoding on append.
func (ix *Index) AttachQuantizer(q *quantization.Reranker, codes []uint8) error {
	if q == nil {
		return fmt.Errorf("index: nil quantizer")
	}
	if q.Dim() != ix.Dim {
		return fmt.Errorf("index: quantizer dim %d != index dim %d", q.Dim(), ix.Dim)
	}
	if len(codes) != ix.N*q.M() {
		return fmt.Errorf("index: code slab %d bytes, want %d (n=%d, m=%d)",
			len(codes), ix.N*q.M(), ix.N, q.M())
	}
	if err := validateCodes(q, codes); err != nil {
		return err
	}
	ix.Quant = q
	ix.QCodes = codes
	if q.Rotated() {
		ix.encRot = make([]float32, ix.Dim)
	}
	return nil
}

// validateCodes rejects code bytes outside the quantizer's centroid
// range. Codes arrive from untrusted files (base image, segment
// sidecars); an out-of-range byte would index past the end of a query's
// ADC table row at serving time.
func validateCodes(q *quantization.Reranker, codes []uint8) error {
	if k := q.K(); k < quantization.MaxCentroids {
		limit := uint8(k)
		for i, c := range codes {
			if c >= limit {
				return fmt.Errorf("index: code byte %d at %d out of range (K=%d)", c, i, k)
			}
		}
	}
	return nil
}

// Quantizer returns the serving quantizer, or nil when re-ranking is
// not enabled.
func (ix *Index) Quantizer() *quantization.Reranker { return ix.Quant }

// CodesSlab returns the id-aligned code slab (nil without a
// quantizer). Read-only for snapshot views.
func (ix *Index) CodesSlab() []uint8 { return ix.QCodes }

// CodesRange returns the code sub-slab covering span items starting at
// id minID (nil without a quantizer) — the column the persistence
// layer writes alongside a segment's vectors.
func (ix *Index) CodesRange(minID, span int) []uint8 {
	if ix.Quant == nil {
		return nil
	}
	m := ix.Quant.M()
	return ix.QCodes[minID*m : (minID+span)*m]
}

// IsDeleted reports whether id is tombstoned (frozen bitmap or delta).
func (ix *Index) IsDeleted(id int32) bool {
	if tombTest(ix.tombs.words, id) {
		return true
	}
	if ix.tombs.delta != nil {
		_, ok := ix.tombs.delta[id]
		return ok
	}
	return false
}

// Delete tombstones id, reporting whether it was live. The id's vector
// and posting-list entries stay in place until the next seal or merge
// purges them; searches skip it via the bitmap from the next snapshot
// on. Caller holds the writer lock.
func (ix *Index) Delete(id int32) bool {
	if id < 0 || int(id) >= ix.N || ix.IsDeleted(id) {
		return false
	}
	if ix.tombs.delta == nil {
		ix.tombs.delta = make(map[int32]struct{})
	}
	ix.tombs.delta[id] = struct{}{}
	ix.tombs.dead++
	ix.tombs.pending++
	return true
}

// foldTombs folds the delete delta into a fresh bitmap (copy-on-write:
// snapshots sharing the old words are unaffected). No-op when the delta
// is empty, so snapshot publication stays O(segments + memtable).
func (ix *Index) foldTombs() {
	t := &ix.tombs
	if len(t.delta) == 0 {
		return
	}
	w := make([]uint64, (ix.N+63)/64)
	copy(w, t.words)
	for id := range t.delta {
		w[id>>6] |= 1 << (uint(id) & 63)
	}
	t.words = w
	t.delta = nil
}

// TombWords returns the frozen tombstone bitmap (nil when nothing was
// ever deleted or the deletes still sit in the delta). Read-only.
func (ix *Index) TombWords() []uint64 { return ix.tombs.words }

// FoldedTombWords folds the delta and returns the bitmap, or nil when
// no id is dead. Caller holds the writer lock.
func (ix *Index) FoldedTombWords() []uint64 {
	if ix.tombs.dead == 0 {
		return nil
	}
	ix.foldTombs()
	return ix.tombs.words
}

// LiveItems returns the number of non-deleted items.
func (ix *Index) LiveItems() int { return ix.N - ix.tombs.dead }

// Tombstones returns the number of deleted items.
func (ix *Index) Tombstones() int { return ix.tombs.dead }

// PendingTombstones returns the number of deleted ids still present in
// posting lists (not yet purged by a seal or merge).
func (ix *Index) PendingTombstones() int { return ix.tombs.pending }

// deadInRange counts set bitmap bits in [lo, hi). Delta deletes are not
// counted; callers fold first.
func (ix *Index) deadInRange(lo, hi int) int {
	n := 0
	for id := lo; id < hi; id++ {
		if tombTest(ix.tombs.words, int32(id)) {
			n++
		}
	}
	return n
}

// UnionTombs ors an external bitmap (recovery's tombs.bits file) into
// the tombstone set. Bits at or past N are ignored — with the WAL off
// they can name adds that were legitimately lost. Counters are left for
// RecomputeTombstones. Caller holds the writer lock.
func (ix *Index) UnionTombs(words []uint64) {
	ix.foldTombs()
	nw := (ix.N + 63) / 64
	if len(words) > nw {
		words = words[:nw]
	}
	w := make([]uint64, nw)
	copy(w, ix.tombs.words)
	for i, x := range words {
		w[i] |= x
	}
	if tail := ix.N & 63; tail != 0 {
		w[nw-1] &= (1 << uint(tail)) - 1
	}
	ix.tombs.words = w
}

// RecomputeTombstones rebuilds the dead and pending counters from the
// bitmap and the segment metadata — the recovery path's final step,
// after segments, tombs.bits and WAL deletes have all been applied.
// Caller holds the writer lock.
func (ix *Index) RecomputeTombstones() {
	ix.foldTombs()
	dead := 0
	for _, x := range ix.tombs.words {
		dead += popcount(x)
	}
	ix.tombs.dead = dead
	pending := 0
	for _, s := range ix.segs {
		pending += ix.deadInRange(s.minID, s.minID+s.span) - (s.span - s.items)
	}
	mt := ix.MemtableItems()
	pending += ix.deadInRange(ix.N-mt, ix.N)
	ix.tombs.pending = pending
}

// Probe resolves a code to its bucket across every frozen segment and
// the memtable — the O(segments) slot-handle lookup of the querying hot
// path. The result is written into ref, reusing its Segs backing array,
// so a warmed caller probes without allocating. No Go map is consulted.
func (ix *Index) Probe(t int, code uint64, ref *BucketRef) {
	segs := ref.Segs[:0]
	for _, s := range ix.segs {
		if ids := s.cores[t].get(code); len(ids) > 0 {
			segs = append(segs, ids)
		}
	}
	ref.Segs = segs
	ref.Tail = ix.Tables[t].tail.get(code)
}

// Bucket returns the item ids table t stores under the given code (nil
// when the bucket is empty), in ascending order. When the bucket spans
// tiers the slices are copied into a fresh slice; hot paths use Probe.
func (ix *Index) Bucket(t int, code uint64) []int32 {
	var ref BucketRef
	ix.Probe(t, code, &ref)
	n := ref.Len()
	if n == 0 {
		return nil
	}
	if len(ref.Segs) == 1 && len(ref.Tail) == 0 {
		return ref.Segs[0]
	}
	if len(ref.Segs) == 0 {
		return ref.Tail
	}
	out := make([]int32, 0, n)
	for _, s := range ref.Segs {
		out = append(out, s...)
	}
	return append(out, ref.Tail...)
}

// Codes returns table t's non-empty bucket codes in ascending order
// (deterministic iteration for the sort-based querying methods). The
// returned slice is shared with a segment when only one tier holds
// codes; callers must treat it as read-only.
func (ix *Index) Codes(t int) []uint64 {
	lists := make([][]uint64, 0, len(ix.segs)+1)
	for _, s := range ix.segs {
		if len(s.cores[t].codes) > 0 {
			lists = append(lists, s.cores[t].codes)
		}
	}
	ts := ix.Tables[t].tail
	if len(ts.codes) > 0 {
		tc := make([]uint64, len(ts.codes))
		copy(tc, ts.codes)
		sort.Slice(tc, func(i, j int) bool { return tc[i] < tc[j] })
		lists = append(lists, tc)
	}
	if len(lists) == 0 {
		return nil
	}
	merged := lists[0]
	for _, l := range lists[1:] {
		merged = mergeCodeLists(merged, l)
	}
	return merged
}

// mergeCodeLists merges two ascending code lists, dropping duplicates.
func mergeCodeLists(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// BucketCount returns table t's number of non-empty buckets, the
// quantity the paper reports per dataset ("3,872 ... 567,753 buckets",
// §6.2).
func (ix *Index) BucketCount(t int) int { return len(ix.Codes(t)) }

// Stats summarizes bucket occupancy.
type Stats struct {
	Items         int
	Buckets       int
	MaxBucketSize int
	AvgBucketSize float64
}

// TableStats computes occupancy statistics for table t across all
// tiers.
func (ix *Index) TableStats(t int) Stats {
	var s Stats
	tail := ix.Tables[t].tail
	for _, code := range ix.Codes(t) {
		size := len(tail.get(code))
		for _, seg := range ix.segs {
			size += len(seg.cores[t].get(code))
		}
		s.Buckets++
		s.Items += size
		if size > s.MaxBucketSize {
			s.MaxBucketSize = size
		}
	}
	if s.Buckets > 0 {
		s.AvgBucketSize = float64(s.Items) / float64(s.Buckets)
	}
	return s
}

// MemtableItems reports how many ids sit in one table's memtable —
// appended by Add and not yet sealed into a segment. Every table's
// memtable holds the same count (Add feeds them all).
func (ix *Index) MemtableItems() int {
	if len(ix.Tables) == 0 {
		return 0
	}
	return ix.Tables[0].tail.items
}

// SegmentCount returns the number of frozen segments.
func (ix *Index) SegmentCount() int { return len(ix.segs) }

// Segments returns the frozen segment list (read-only; the slice is
// the live one, callers must hold the writer lock).
func (ix *Index) Segments() []*Segment { return ix.segs }

// TakeSeq allocates the next segment sequence number. Caller holds the
// writer lock.
func (ix *Index) TakeSeq() uint64 {
	s := ix.segSeq
	ix.segSeq++
	return s
}

// SealMemtable freezes every table's memtable into one new frozen
// segment appended to the segment list, and installs fresh empty
// memtables. Cost O(memtable items); returns nil when the memtable is
// empty. Earlier snapshots are unaffected (they cloned the memtable
// and do not see the new segment). Caller holds the writer lock.
func (ix *Index) SealMemtable() *Segment {
	span := ix.MemtableItems()
	if span == 0 {
		return nil
	}
	// Fold first so the memtable's own dead ids are in the bitmap; the
	// sealed cores are then filtered, so a fresh segment is born
	// tombstone-free and pending drops by the purged count.
	var tombs []uint64
	if ix.tombs.dead > 0 {
		ix.foldTombs()
		tombs = ix.tombs.words
	}
	cores := make([]*coreStore, len(ix.Tables))
	for t, tbl := range ix.Tables {
		cores[t] = filterCore(sealCore(tbl.tail), tombs)
		tbl.tail = newTailStore()
	}
	items := span
	if len(cores) > 0 {
		items = cores[0].items()
	}
	seg := newSegment(cores, ix.N-span, span, items, ix.TakeSeq())
	ix.tombs.pending -= span - items
	ix.segs = append(ix.segs, seg)
	ix.seals++
	return seg
}

// AppendSegment attaches a segment covering exactly [ix.N, ix.N+span)
// along with its vectors and optional metadata words — the recovery
// path re-attaching segment files to a base index. The memtable must be
// empty.
func (ix *Index) AppendSegment(seg *Segment, vectors []float32, meta []uint64, codes []uint8) error {
	if ix.MemtableItems() != 0 {
		return fmt.Errorf("index: AppendSegment with non-empty memtable")
	}
	if len(seg.cores) != len(ix.Tables) {
		return fmt.Errorf("index: segment has %d tables, index has %d", len(seg.cores), len(ix.Tables))
	}
	if seg.minID != ix.N {
		return fmt.Errorf("index: segment starts at id %d, index ends at %d", seg.minID, ix.N)
	}
	if len(vectors) != seg.span*ix.Dim {
		return fmt.Errorf("index: segment vector block %d floats, want %d", len(vectors), seg.span*ix.Dim)
	}
	if meta != nil && len(meta) != seg.span {
		return fmt.Errorf("index: segment meta block %d words, want %d", len(meta), seg.span)
	}
	if ix.Quant != nil && codes != nil {
		if len(codes) != seg.span*ix.Quant.M() {
			return fmt.Errorf("index: segment code block %d bytes, want %d", len(codes), seg.span*ix.Quant.M())
		}
		if err := validateCodes(ix.Quant, codes); err != nil {
			return err
		}
	}
	ix.Data = append(ix.Data, vectors...)
	if meta != nil && ix.Meta == nil {
		ix.Meta = make([]uint64, ix.N)
	}
	if ix.Meta != nil {
		if meta != nil {
			ix.Meta = append(ix.Meta, meta...)
		} else {
			ix.Meta = append(ix.Meta, make([]uint64, seg.span)...)
		}
	}
	if ix.Quant != nil {
		if codes != nil {
			ix.QCodes = append(ix.QCodes, codes...)
		} else {
			// Legacy segment file without a code column: re-encode. The
			// quantizer is deterministic, so the slab matches what a
			// code-carrying file would have restored.
			ix.QCodes = append(ix.QCodes, ix.Quant.EncodeAll(vectors, seg.span, 1)...)
		}
	}
	ix.N += seg.span
	ix.segs = append(ix.segs, seg)
	if seg.seq >= ix.segSeq {
		ix.segSeq = seg.seq + 1
	}
	return nil
}

// PlanMerge returns a run of adjacent frozen segments worth folding
// into one (size-tiered policy: the leftmost run of ≥ mergeFanout
// segments whose sizes are within mergeRatio of each other), or nil.
// Segments whose id range starts below barrierID are never planned —
// the durability layer uses this to keep segments covered by the base
// snapshot out of merges. Caller holds the writer lock; the returned
// slice is a copy safe to hand to a background goroutine.
// mergeWeight is a segment's size for the tiering policy: live items
// (what a merge actually copies), floored at 1 so fully-purged segments
// still tier with their neighbours instead of poisoning the ratio.
func mergeWeight(s *Segment) int {
	if s.items < 1 {
		return 1
	}
	return s.items
}

func (ix *Index) PlanMerge(barrierID int) []*Segment {
	first := 0
	for first < len(ix.segs) && ix.segs[first].minID < barrierID {
		first++
	}
	for i := first; i < len(ix.segs); i++ {
		lo, hi := mergeWeight(ix.segs[i]), mergeWeight(ix.segs[i])
		j := i + 1
		for j < len(ix.segs) {
			c := mergeWeight(ix.segs[j])
			nlo, nhi := lo, hi
			if c < nlo {
				nlo = c
			}
			if c > nhi {
				nhi = c
			}
			if nhi > mergeRatio*nlo {
				break
			}
			lo, hi = nlo, nhi
			j++
		}
		if j-i >= mergeFanout {
			out := make([]*Segment, j-i)
			copy(out, ix.segs[i:j])
			return out
		}
	}
	return nil
}

// SegmentsAbove returns a copy of the run of segments whose id range
// starts at or after barrierID — everything a full inline compaction
// (Index.Compact at the root) may fold together. Caller holds the
// writer lock.
func (ix *Index) SegmentsAbove(barrierID int) []*Segment {
	first := 0
	for first < len(ix.segs) && ix.segs[first].minID < barrierID {
		first++
	}
	out := make([]*Segment, len(ix.segs)-first)
	copy(out, ix.segs[first:])
	return out
}

// ApplyMerge splices merged into the segment list in place of the run
// in (which must still be present, unchanged — validated by pointer),
// releasing the list's reference on each input. Caller holds the
// writer lock; snapshots published earlier keep their own references.
func (ix *Index) ApplyMerge(in []*Segment, merged *Segment) error {
	lo := -1
	for i, s := range ix.segs {
		if s == in[0] {
			lo = i
			break
		}
	}
	if lo < 0 || lo+len(in) > len(ix.segs) {
		return fmt.Errorf("index: merge inputs no longer in segment list")
	}
	for k, s := range in {
		if ix.segs[lo+k] != s {
			return fmt.Errorf("index: merge input %d no longer in segment list", k)
		}
	}
	out := make([]*Segment, 0, len(ix.segs)-len(in)+1)
	out = append(out, ix.segs[:lo]...)
	out = append(out, merged)
	out = append(out, ix.segs[lo+len(in):]...)
	ix.segs = out
	// Ids the merge purged are no longer in any posting list.
	purged := -merged.items
	for _, s := range in {
		purged += s.items
	}
	ix.tombs.pending -= purged
	for _, s := range in {
		s.Release()
	}
	ix.merges++
	return nil
}

// Snapshot returns an immutable read view of the index: the frozen
// segment list copied with one reference retained per segment, and
// every memtable cloned. Publication cost is O(segments + memtable) —
// never O(core items); folding segments together is the background
// merger's job. The caller must serialize Snapshot with mutations
// (Add, SealMemtable, ApplyMerge) on the live index and must Release
// the view when replacing it; readers of the view never touch a memory
// location a later Add writes.
func (ix *Index) Snapshot() *Index {
	ix.foldTombs() // COW: no-op unless deletes arrived since last fold
	view := &Index{
		Dim: ix.Dim, N: ix.N, Data: ix.Data,
		Meta:         ix.Meta,
		Quant:        ix.Quant,
		QCodes:       ix.QCodes,
		RerankFactor: ix.RerankFactor,
		tombs:        tombSet{words: ix.tombs.words, dead: ix.tombs.dead, pending: ix.tombs.pending},
		Tables:       make([]*Table, len(ix.Tables)),
		segs:         make([]*Segment, len(ix.segs)),
	}
	for i, t := range ix.Tables {
		view.Tables[i] = t.freeze()
	}
	for i, s := range ix.segs {
		s.Retain()
		view.segs[i] = s
	}
	return view
}

// Release drops a snapshot view's segment references when the view is
// unpublished; idempotent. It deliberately leaves segs intact — a zero
// refcount only deletes a segment's file, never its memory, so searches
// still holding the view keep reading valid data.
func (ix *Index) Release() {
	if ix.released.Swap(true) {
		return
	}
	for _, s := range ix.segs {
		s.Release()
	}
}

// Seals reports how many memtables have been sealed into segments.
func (ix *Index) Seals() int { return ix.seals }

// Merges reports how many background/inline segment merges have been
// applied.
func (ix *Index) Merges() int { return ix.merges }

// Compactions reports all compaction events — seals plus merges — since
// construction (lifecycle observability).
func (ix *Index) Compactions() int { return ix.seals + ix.merges }

// Bits returns the code length of the index's hashers.
func (ix *Index) Bits() int { return ix.Tables[0].Hasher.Bits() }

// CodeLengthFor implements the paper's code-length rule m ≈ log2(N/EP)
// with expected bucket occupancy EP (the paper fixes EP = 10, §6.1).
func CodeLengthFor(n, ep int) int {
	if ep <= 0 {
		ep = 10
	}
	m := 0
	for (1 << uint(m+1)) <= n/ep {
		m++
	}
	if m < 1 {
		m = 1
	}
	if m > hash.MaxBits {
		m = hash.MaxBits
	}
	return m
}

// MemoryBytes estimates the index's own storage: per-segment CSR arrays
// and probe tables, memtables and hasher parameters (the vectors belong
// to the caller). This is the quantity behind the paper's §6.3.5 memory
// argument — every extra hash table pays this again.
func (ix *Index) MemoryBytes() int {
	total := len(ix.QCodes) // quantizer code slab (1 byte per subspace per item)
	for t, tbl := range ix.Tables {
		total += tbl.tail.memoryBytes() + hasherBytes(tbl.Hasher)
		for _, s := range ix.segs {
			total += s.cores[t].memoryBytes()
		}
	}
	return total
}

// hasherBytes estimates a hasher's parameter storage via its marshaled
// size.
func hasherBytes(h hash.Hasher) int {
	blob, err := hash.Marshal(h)
	if err != nil {
		return 0
	}
	return len(blob)
}
