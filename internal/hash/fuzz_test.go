package hash

import "testing"

// FuzzUnmarshal ensures the hasher decoder never panics on corrupt
// input, and that every hasher it accepts can code a vector of its own
// declared dimension: Code and QueryProjection on the zero vector must
// not panic and must agree.
func FuzzUnmarshal(f *testing.F) {
	data := trainData(f, 100, 8, 51)
	for _, l := range []Learner{PCAH{}, SH{}, KMH{SubspaceBits: 2, Iterations: 3}} {
		h, err := l.Train(data, 100, 8, 6, 52)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add(kmhPastDimBlob())
	f.Fuzz(func(t *testing.T, blob []byte) {
		h, err := Unmarshal(blob)
		if err != nil {
			return
		}
		if h.Bits() < 1 || h.Bits() > MaxBits {
			t.Fatalf("accepted hasher with invalid Bits %d", h.Bits())
		}
		// Unmarshal ties every declared dim to data in the blob, so
		// this allocation is bounded by the input's size.
		x := make([]float32, declaredDim(t, h))
		costs := make([]float64, h.Bits())
		if c, q := h.Code(x), h.QueryProjection(x, costs); c != q {
			t.Fatalf("Code %x != QueryProjection code %x", c, q)
		}
	})
}

// declaredDim is the input dimension an unmarshalled hasher declares.
func declaredDim(t *testing.T, h Hasher) int {
	switch h := h.(type) {
	case *projHasher:
		return h.h.Cols
	case *shHasher:
		return h.e.Cols
	case *kmhHasher:
		return h.dim
	}
	t.Fatalf("unknown hasher type %T", h)
	return 0
}
