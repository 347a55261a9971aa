package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gqr/internal/hash"
	"gqr/internal/quantization"
)

// Index persistence. The file stores the trained hashers and the bucket
// structure — everything derived from training — but not the raw
// vectors, which the caller supplies again at load time (the index only
// ever references them). Four formats, all little-endian:
//
// GQRIDX4 (written by Save when the index carries a serving quantizer)
// extends v3 with the quantizer parameters and the id-aligned code
// slab. The lifecycle block is always present in a v4 stream (a zero
// deadCount / zero metaFlag when unused):
//
//	magic "GQRIDX4\x00" | dim u32 | n u32 | tables u32
//	deadCount u32
//	if deadCount > 0: bitmap (⌈n/64⌉ × u64, one bit per id)
//	metaFlag u8
//	if metaFlag == 1: meta (n × u64)
//	quantizer blob (u32 length + quantization.Reranker marshaling)
//	rerank factor u32 (serving default for the re-ranking stage)
//	codes (n × M bytes, id-aligned; M from the quantizer)
//	per table: identical to v3
//
// GQRIDX3 (written by Save when the index carries lifecycle state —
// tombstones or per-item metadata) extends v2 with a tombstone bitmap
// and an optional meta block. The streamed posting lists are the PURGED
// view: no tombstoned id appears in any bucket, so the save is the
// canonical compacted form regardless of how many pending tombstones
// the in-memory index still holds:
//
//	magic "GQRIDX3\x00" | dim u32 | n u32 | tables u32
//	deadCount u32
//	if deadCount > 0: bitmap (⌈n/64⌉ × u64, one bit per id)
//	metaFlag u8
//	if metaFlag == 1: meta (n × u64)
//	per table: hasher blob (u32 length + bytes)
//	           bucket count nb u32
//	           codes   (nb × u64, strictly ascending)
//	           offsets ((nb+1) × u32, offsets[0]=0, offsets[nb]=live)
//	           ids     (live × u32, live = n − deadCount)
//
// GQRIDX2 (written by Save otherwise; the common tombstone-free case
// stays bit-identical with older writers) streams each table's
// compacted CSR tier directly — the on-disk layout IS the in-memory
// layout, so loading is three bulk reads per table:
//
//	magic "GQRIDX2\x00" | dim u32 | n u32 | tables u32
//	per table: hasher blob (u32 length + bytes)
//	           bucket count nb u32
//	           codes   (nb × u64, strictly ascending)
//	           offsets ((nb+1) × u32, offsets[0]=0, offsets[nb]=n)
//	           ids     (n × u32, grouped by bucket)
//
// GQRIDX1 (legacy, still loadable) interleaved per-bucket records:
//
//	magic "GQRIDX1\x00" | dim u32 | n u32 | tables u32
//	per table: hasher blob (u32 length + bytes)
//	           bucket count u32
//	           per bucket: code u64 | id count u32 | ids (u32 each)

var (
	magicV1 = [8]byte{'G', 'Q', 'R', 'I', 'D', 'X', '1', 0}
	magicV2 = [8]byte{'G', 'Q', 'R', 'I', 'D', 'X', '2', 0}
	magicV3 = [8]byte{'G', 'Q', 'R', 'I', 'D', 'X', '3', 0}
	magicV4 = [8]byte{'G', 'Q', 'R', 'I', 'D', 'X', '4', 0}
)

// maxQuantBlob bounds the quantizer blob accepted from untrusted
// streams (a generous ceiling: 256 centroids × 64k dims × 4 bytes).
const maxQuantBlob = 1 << 26

// Save writes the index (hashers + buckets) to w — GQRIDX3 when the
// index holds tombstones or metadata, GQRIDX2 otherwise. Each table's
// segments and memtable are folded into one streamed CSR tier on the
// fly, with tombstoned ids purged; aside from folding the tombstone
// delta into the frozen bitmap, the live index is not mutated.
func (ix *Index) Save(w io.Writer) error {
	if ix.N < 0 || ix.N > math.MaxUint32 {
		return fmt.Errorf("index: save: item count %d does not fit the format", ix.N)
	}
	if ix.Dim < 0 || ix.Dim > math.MaxUint32 {
		return fmt.Errorf("index: save: dim %d does not fit the format", ix.Dim)
	}
	v4 := ix.Quant != nil
	v3 := v4 || ix.tombs.dead > 0 || len(ix.tombs.delta) > 0 || ix.Meta != nil
	tombs := ix.FoldedTombWords()
	bw := bufio.NewWriter(w)
	magic := magicV2
	switch {
	case v4:
		magic = magicV4
	case v3:
		magic = magicV3
	}
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	writeU32 := func(v uint32) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := writeU32(uint32(ix.Dim)); err != nil {
		return err
	}
	if err := writeU32(uint32(ix.N)); err != nil {
		return err
	}
	if err := writeU32(uint32(len(ix.Tables))); err != nil {
		return err
	}
	if v3 {
		if err := writeU32(uint32(ix.tombs.dead)); err != nil {
			return err
		}
		if ix.tombs.dead > 0 {
			words := make([]uint64, (ix.N+63)/64)
			copy(words, tombs)
			if err := binary.Write(bw, binary.LittleEndian, words); err != nil {
				return err
			}
		}
		metaFlag := uint8(0)
		if ix.Meta != nil {
			metaFlag = 1
		}
		if err := binary.Write(bw, binary.LittleEndian, metaFlag); err != nil {
			return err
		}
		if ix.Meta != nil {
			if err := binary.Write(bw, binary.LittleEndian, ix.Meta); err != nil {
				return err
			}
		}
	}
	if v4 {
		blob := ix.Quant.Marshal()
		if len(blob) > maxQuantBlob {
			return fmt.Errorf("index: save: quantizer blob too large (%d bytes)", len(blob))
		}
		if err := writeU32(uint32(len(blob))); err != nil {
			return err
		}
		if _, err := bw.Write(blob); err != nil {
			return err
		}
		if ix.RerankFactor < 0 || ix.RerankFactor > math.MaxUint32 {
			return fmt.Errorf("index: save: rerank factor %d does not fit the format", ix.RerankFactor)
		}
		if err := writeU32(uint32(ix.RerankFactor)); err != nil {
			return err
		}
		if len(ix.QCodes) != ix.N*ix.Quant.M() {
			return fmt.Errorf("index: save: code slab %d bytes for %d items", len(ix.QCodes), ix.N)
		}
		if _, err := bw.Write(ix.QCodes); err != nil {
			return err
		}
	}
	for ti, t := range ix.Tables {
		blob, err := hash.Marshal(t.Hasher)
		if err != nil {
			return fmt.Errorf("index: save: table %d hasher: %w", ti, err)
		}
		if len(blob) > math.MaxUint32 {
			return fmt.Errorf("index: save: table %d hasher blob too large", ti)
		}
		if err := writeU32(uint32(len(blob))); err != nil {
			return err
		}
		if _, err := bw.Write(blob); err != nil {
			return err
		}
		core := filterCore(ix.compactedCore(ti), tombs)
		if len(core.codes) > math.MaxUint32 || len(core.ids) > math.MaxUint32 {
			return fmt.Errorf("index: save: table %d bucket structure does not fit the format", ti)
		}
		if err := writeU32(uint32(len(core.codes))); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, core.codes); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, core.offsets); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, core.ids); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads an index saved with Save — the current GQRIDX3, GQRIDX2 or
// the legacy GQRIDX1 — and re-attaches the vector block (which must be
// the same data the index was built from: same count and dimension; ids
// are validated against n). A v3 file restores the tombstone bitmap and
// per-item metadata; its posting lists are validated to be fully purged
// (no tombstoned id appears, exactly live = n − dead ids per table).
func Load(r io.Reader, data []float32, dim int) (*Index, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	var v1, v3, v4 bool
	switch m {
	case magicV1:
		v1 = true
	case magicV2:
	case magicV3:
		v3 = true
	case magicV4:
		v3, v4 = true, true
	default:
		return nil, fmt.Errorf("index: load: bad magic %q", m[:])
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	fdim, err := readU32()
	if err != nil {
		return nil, err
	}
	n, err := readU32()
	if err != nil {
		return nil, err
	}
	tables, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(fdim) != dim {
		return nil, fmt.Errorf("index: load: file dim %d != provided dim %d", fdim, dim)
	}
	if dim <= 0 || len(data) != int(n)*dim {
		return nil, fmt.Errorf("index: load: vector block has %d floats, want %d*%d", len(data), n, dim)
	}
	if tables == 0 || tables > 1024 {
		return nil, fmt.Errorf("index: load: implausible table count %d", tables)
	}
	ix := &Index{Dim: dim, N: int(n), Data: data[:len(data):len(data)]} // see BuildP
	live := n
	var tombWords []uint64
	if v3 {
		dead, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		if dead > n {
			return nil, fmt.Errorf("index: load: %d tombstones for %d items", dead, n)
		}
		if dead > 0 {
			tombWords = make([]uint64, (int(n)+63)/64)
			if err := binary.Read(br, binary.LittleEndian, tombWords); err != nil {
				return nil, fmt.Errorf("index: load: %w", err)
			}
			setBits := 0
			for _, w := range tombWords {
				setBits += popcount(w)
			}
			if setBits != int(dead) {
				return nil, fmt.Errorf("index: load: tombstone bitmap has %d bits set, header says %d", setBits, dead)
			}
			if tail := int(n) & 63; tail != 0 && tombWords[len(tombWords)-1]>>uint(tail) != 0 {
				return nil, fmt.Errorf("index: load: tombstone bitmap marks ids past item count %d", n)
			}
			ix.tombs = tombSet{words: tombWords, dead: int(dead)}
		}
		live = n - dead
		var metaFlag uint8
		if err := binary.Read(br, binary.LittleEndian, &metaFlag); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		if metaFlag > 1 {
			return nil, fmt.Errorf("index: load: bad meta flag %d", metaFlag)
		}
		if metaFlag == 1 {
			ix.Meta = make([]uint64, n)
			if err := binary.Read(br, binary.LittleEndian, ix.Meta); err != nil {
				return nil, fmt.Errorf("index: load: %w", err)
			}
		}
	}
	if v4 {
		blobLen, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		if blobLen == 0 || blobLen > maxQuantBlob {
			return nil, fmt.Errorf("index: load: implausible quantizer size %d", blobLen)
		}
		var blobBuf bytes.Buffer
		if _, err := io.CopyN(&blobBuf, br, int64(blobLen)); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		q, err := quantization.UnmarshalReranker(blobBuf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		if q.Dim() != dim {
			return nil, fmt.Errorf("index: load: quantizer dim %d != index dim %d", q.Dim(), dim)
		}
		factor, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("index: load: rerank factor: %w", err)
		}
		if factor == 0 || factor > 1<<20 {
			return nil, fmt.Errorf("index: load: implausible rerank factor %d", factor)
		}
		ix.RerankFactor = int(factor)
		codes := make([]uint8, int(n)*q.M())
		if _, err := io.ReadFull(br, codes); err != nil {
			return nil, fmt.Errorf("index: load: code slab: %w", err)
		}
		if err := ix.AttachQuantizer(q, codes); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
	}
	cores := make([]*coreStore, 0, tables)
	for t := 0; t < int(tables); t++ {
		blobLen, err := readU32()
		if err != nil {
			return nil, err
		}
		if blobLen > 1<<24 {
			return nil, fmt.Errorf("index: load: implausible hasher size %d", blobLen)
		}
		// CopyN rather than a single up-front allocation: a corrupt
		// length on a truncated stream then costs only the bytes
		// actually present.
		var blobBuf bytes.Buffer
		if _, err := io.CopyN(&blobBuf, br, int64(blobLen)); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		h, err := hash.Unmarshal(blobBuf.Bytes())
		if err != nil {
			return nil, err
		}
		var core *coreStore
		if v1 {
			core, err = loadTableV1(br, n, t)
		} else {
			core, err = loadTableV2(br, n, live, t)
		}
		if err != nil {
			return nil, err
		}
		if tombWords != nil {
			for _, id := range core.ids {
				if tombTest(tombWords, id) {
					return nil, fmt.Errorf("index: load: table %d posting lists contain tombstoned id %d", t, id)
				}
			}
		}
		ix.Tables = append(ix.Tables, &Table{Hasher: h, tail: newTailStore()})
		cores = append(cores, core)
	}
	ix.segs = []*Segment{newSegment(cores, 0, int(n), int(live), 0)}
	ix.segSeq = 1
	return ix, nil
}

// compactedCore folds table t's bucket structure — every segment core
// plus the memtable — into a single CSR tier (the index itself is not
// mutated). Persistence streams this view.
func (ix *Index) compactedCore(t int) *coreStore {
	var c *coreStore
	for _, s := range ix.segs {
		if c == nil {
			c = s.cores[t]
		} else {
			c = mergeCores(c, s.cores[t])
		}
	}
	if c == nil {
		c = newCoreStore(nil, []uint32{0}, nil)
	}
	return c.merge(ix.Tables[t].tail)
}

// loadTableV2 reads one table's CSR arrays (shared by the v2 and v3
// formats) and validates the structural invariants (ascending codes,
// monotone offsets spanning exactly live ids, ids in range). live == n
// for v2 files; a v3 file stores only non-tombstoned ids.
func loadTableV2(br *bufio.Reader, n, live uint32, t int) (*coreStore, error) {
	var nb uint32
	if err := binary.Read(br, binary.LittleEndian, &nb); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	if uint64(nb) > uint64(live) {
		return nil, fmt.Errorf("index: load: table %d has %d buckets for %d items", t, nb, live)
	}
	codes := make([]uint64, nb)
	if err := binary.Read(br, binary.LittleEndian, codes); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	for i := 1; i < len(codes); i++ {
		if codes[i] <= codes[i-1] {
			return nil, fmt.Errorf("index: load: table %d bucket codes not ascending", t)
		}
	}
	offsets := make([]uint32, nb+1)
	if err := binary.Read(br, binary.LittleEndian, offsets); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	if offsets[0] != 0 || offsets[nb] != live {
		return nil, fmt.Errorf("index: load: table %d offsets span [%d,%d], want [0,%d]", t, offsets[0], offsets[nb], live)
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("index: load: table %d offsets not monotone", t)
		}
		if offsets[i] == offsets[i-1] {
			return nil, fmt.Errorf("index: load: table %d stores an empty bucket", t)
		}
	}
	ids := make([]int32, live)
	if err := binary.Read(br, binary.LittleEndian, ids); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	for _, id := range ids {
		if id < 0 || uint32(id) >= n {
			return nil, fmt.Errorf("index: load: item id %d out of range", id)
		}
	}
	return newCoreStore(codes, offsets, ids), nil
}

// loadTableV1 reads one table in the legacy per-bucket record format
// and assembles the CSR tier from it. V1 writers emitted buckets in
// ascending code order, which is verified rather than assumed.
func loadTableV1(br *bufio.Reader, n uint32, t int) (*coreStore, error) {
	var nb uint32
	if err := binary.Read(br, binary.LittleEndian, &nb); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	if uint64(nb) > uint64(n) {
		return nil, fmt.Errorf("index: load: table %d has %d buckets for %d items", t, nb, n)
	}
	codes := make([]uint64, 0, nb)
	offsets := make([]uint32, 1, nb+1)
	ids := make([]int32, 0, n)
	for b := 0; b < int(nb); b++ {
		var code uint64
		if err := binary.Read(br, binary.LittleEndian, &code); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		if len(codes) > 0 && code <= codes[len(codes)-1] {
			return nil, fmt.Errorf("index: load: table %d bucket codes not ascending", t)
		}
		var cnt uint32
		if err := binary.Read(br, binary.LittleEndian, &cnt); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		if uint64(len(ids))+uint64(cnt) > uint64(n) {
			return nil, fmt.Errorf("index: load: table %d holds more ids than items", t)
		}
		for i := 0; i < int(cnt); i++ {
			var v uint32
			if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
				return nil, fmt.Errorf("index: load: %w", err)
			}
			if v >= n {
				return nil, fmt.Errorf("index: load: item id %d out of range", v)
			}
			ids = append(ids, int32(v))
		}
		codes = append(codes, code)
		offsets = append(offsets, uint32(len(ids)))
	}
	if len(ids) != int(n) {
		return nil, fmt.Errorf("index: load: table %d indexes %d of %d items", t, len(ids), n)
	}
	return newCoreStore(codes, offsets, ids), nil
}
