package hash

import (
	"bytes"
	"testing"

	"gqr/internal/vecmath"
)

func TestMarshalRoundTripAllHashers(t *testing.T) {
	const n, d, bits = 300, 16, 8
	data := trainData(t, n, d, 31)
	for _, l := range allLearners() {
		h, err := l.Train(data, n, d, bits, 32)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		blob, err := Marshal(h)
		if err != nil {
			t.Fatalf("%s: marshal: %v", l.Name(), err)
		}
		h2, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", l.Name(), err)
		}
		if h2.Name() != h.Name() || h2.Bits() != h.Bits() {
			t.Fatalf("%s: identity lost: %s/%d", l.Name(), h2.Name(), h2.Bits())
		}
		costs1 := make([]float64, bits)
		costs2 := make([]float64, bits)
		for i := 0; i < 50; i++ {
			x := data[i*d : (i+1)*d]
			if h.Code(x) != h2.Code(x) {
				t.Fatalf("%s: codes differ after round trip", l.Name())
			}
			c1 := h.QueryProjection(x, costs1)
			c2 := h2.QueryProjection(x, costs2)
			if c1 != c2 {
				t.Fatalf("%s: query codes differ after round trip", l.Name())
			}
			for b := range costs1 {
				if costs1[b] != costs2[b] {
					t.Fatalf("%s: flipping costs differ after round trip", l.Name())
				}
			}
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	const n, d, bits = 100, 8, 6
	data := trainData(t, n, d, 33)
	h, err := (ITQ{Iterations: 5}).Train(data, n, d, bits, 34)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	// Empty input.
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty blob must be rejected")
	}
	// Unknown tag.
	bad := append([]byte{99}, blob[1:]...)
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("unknown tag must be rejected")
	}
	// Truncations at every prefix length must error, not panic.
	for cut := 1; cut < len(blob); cut += 7 {
		if _, err := Unmarshal(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestUnmarshalRejectsInconsistentKMH(t *testing.T) {
	const n, d, bits = 200, 8, 8
	data := trainData(t, n, d, 35)
	h, err := (KMH{SubspaceBits: 2, Iterations: 5}).Train(data, n, d, bits, 36)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the bits field (offset 1..4 after the tag byte).
	blob[1] = 63
	if _, err := Unmarshal(blob); err == nil {
		t.Fatal("inconsistent kmh header must be rejected")
	}
	// A zero-dimension subspace with its (consistently empty) codebook.
	var buf bytes.Buffer
	buf.WriteByte(tagKMH)
	for _, v := range []uint32{2, 2, 8, 1, 0, 0} { // bits bps dim subs; dims offset
		writeU32(&buf, v)
	}
	writeF32s(&buf, nil)
	if _, err := Unmarshal(buf.Bytes()); err == nil {
		t.Fatal("zero-dimension kmh subspace must be rejected")
	}
	// A subspace past the declared dimension: accepted, it would slice
	// out of range in Code.
	if _, err := Unmarshal(kmhPastDimBlob()); err == nil {
		t.Fatal("kmh subspace past the declared dim must be rejected")
	}
	// Subspaces covering less than the declared dimension: a hostile
	// dim could then ask callers for vectors of any length.
	buf.Reset()
	buf.WriteByte(tagKMH)
	for _, v := range []uint32{1, 1, 1 << 30, 1, 2, 0} { // bits bps dim subs; dims offset
		writeU32(&buf, v)
	}
	writeF32s(&buf, []float32{0, 0, 1, 1})
	if _, err := Unmarshal(buf.Bytes()); err == nil {
		t.Fatal("kmh subspaces short of the declared dim must be rejected")
	}
}

// kmhPastDimBlob is a KMH hasher whose one subspace covers dims
// [100,102) of a 4-dimensional input: bits=bps=1, dim=4, dims=2,
// offset=100, with a consistent 2×2 codebook.
func kmhPastDimBlob() []byte {
	var buf bytes.Buffer
	buf.WriteByte(tagKMH)
	for _, v := range []uint32{1, 1, 4, 1, 2, 100} { // bits bps dim subs; dims offset
		writeU32(&buf, v)
	}
	writeF32s(&buf, []float32{0, 0, 1, 1})
	return buf.Bytes()
}

func TestUnmarshalRejectsOversizedSH(t *testing.T) {
	// An SH hasher with more PCA dims than MaxBits: accepted, its
	// projection would index past its fixed scratch in Code.
	var buf bytes.Buffer
	buf.WriteByte(tagSH)
	rows, cols := MaxBits+1, 2
	writeMat(&buf, vecmath.NewMat(rows, cols))
	writeF64s(&buf, make([]float64, cols))
	writeU32(&buf, 1)                  // one eigenfunction
	for _, v := range []uint32{0, 1} { // dim k
		writeU32(&buf, v)
	}
	for i := 0; i < 4; i++ { // lo hi eig freq
		writeF64(&buf, 1)
	}
	if _, err := Unmarshal(buf.Bytes()); err == nil {
		t.Fatal("sh hasher with more than MaxBits projection dims must be rejected")
	}
}
