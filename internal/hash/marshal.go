package hash

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gqr/internal/vecmath"
)

// Binary serialization of trained hashers, used by index persistence.
// The format is versioned by a one-byte type tag; all integers are
// little-endian uint32/uint64 and floats are IEEE-754 bits.

const (
	tagProj byte = 1
	tagSH   byte = 2
	tagKMH  byte = 3
)

// Marshal encodes a trained hasher produced by this package.
func Marshal(h Hasher) ([]byte, error) {
	var buf bytes.Buffer
	switch t := h.(type) {
	case *projHasher:
		buf.WriteByte(tagProj)
		writeString(&buf, t.name)
		writeMat(&buf, t.h)
		writeF64s(&buf, t.mean)
	case *shHasher:
		buf.WriteByte(tagSH)
		writeMat(&buf, t.e)
		writeF64s(&buf, t.mean)
		writeU32(&buf, uint32(len(t.funcs)))
		for _, f := range t.funcs {
			writeU32(&buf, uint32(f.dim))
			writeU32(&buf, uint32(f.k))
			writeF64(&buf, f.lo)
			writeF64(&buf, f.hi)
			writeF64(&buf, f.eig)
			writeF64(&buf, f.freq)
		}
	case *kmhHasher:
		buf.WriteByte(tagKMH)
		writeU32(&buf, uint32(t.bits))
		writeU32(&buf, uint32(t.bitsPerSS))
		writeU32(&buf, uint32(t.dim))
		writeU32(&buf, uint32(len(t.subs)))
		for _, s := range t.subs {
			writeU32(&buf, uint32(s.dims))
			writeU32(&buf, uint32(s.offset))
			writeF32s(&buf, s.centroids)
		}
	default:
		return nil, fmt.Errorf("hash: cannot marshal hasher type %T", h)
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes a hasher previously encoded with Marshal.
func Unmarshal(data []byte) (Hasher, error) {
	r := bytes.NewReader(data)
	tag, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("hash: unmarshal: %w", err)
	}
	switch tag {
	case tagProj:
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		m, err := readMat(r)
		if err != nil {
			return nil, err
		}
		mean, err := readF64s(r)
		if err != nil {
			return nil, err
		}
		if len(mean) != m.Cols {
			return nil, fmt.Errorf("hash: unmarshal: mean length %d != dim %d", len(mean), m.Cols)
		}
		if m.Rows < 1 || m.Rows > MaxBits {
			return nil, fmt.Errorf("hash: unmarshal: invalid code length %d", m.Rows)
		}
		return newProjHasher(name, m, mean), nil
	case tagSH:
		e, err := readMat(r)
		if err != nil {
			return nil, err
		}
		mean, err := readF64s(r)
		if err != nil {
			return nil, err
		}
		if len(mean) != e.Cols {
			return nil, fmt.Errorf("hash: unmarshal: mean length %d != dim %d", len(mean), e.Cols)
		}
		if e.Rows > MaxBits {
			return nil, fmt.Errorf("hash: unmarshal: %d sh projection dims > %d", e.Rows, MaxBits)
		}
		nf, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if nf < 1 || nf > MaxBits {
			return nil, fmt.Errorf("hash: unmarshal: invalid eigenfunction count %d", nf)
		}
		funcs := make([]shFunc, nf)
		for i := range funcs {
			var f shFunc
			var dim32, k32 uint32
			if dim32, err = readU32(r); err != nil {
				return nil, err
			}
			if k32, err = readU32(r); err != nil {
				return nil, err
			}
			f.dim, f.k = int(dim32), int(k32)
			if f.dim >= e.Rows {
				return nil, fmt.Errorf("hash: unmarshal: eigenfunction dim %d out of range", f.dim)
			}
			for _, dst := range []*float64{&f.lo, &f.hi, &f.eig, &f.freq} {
				if *dst, err = readF64(r); err != nil {
					return nil, err
				}
			}
			funcs[i] = f
		}
		return &shHasher{e: e, mean: mean, funcs: funcs}, nil
	case tagKMH:
		var bits, bps, dim, ns uint32
		var err error
		if bits, err = readU32(r); err != nil {
			return nil, err
		}
		if bps, err = readU32(r); err != nil {
			return nil, err
		}
		if dim, err = readU32(r); err != nil {
			return nil, err
		}
		if ns, err = readU32(r); err != nil {
			return nil, err
		}
		if bits < 1 || bits > MaxBits || bps < 1 || bps > maxSubspaceBits || ns == 0 || int(bits) != int(bps)*int(ns) {
			return nil, fmt.Errorf("hash: unmarshal: inconsistent kmh header bits=%d bps=%d subs=%d", bits, bps, ns)
		}
		// Trained subspaces tile [0,dim) in order; anything else would
		// slice past the input in Code, or declare a dim the blob's
		// codebooks cannot vouch for.
		subs := make([]kmhSubspace, ns)
		var next uint64
		for i := range subs {
			var dims, off uint32
			if dims, err = readU32(r); err != nil {
				return nil, err
			}
			if off, err = readU32(r); err != nil {
				return nil, err
			}
			cents, err := readF32s(r)
			if err != nil {
				return nil, err
			}
			if dims == 0 || len(cents) != (1<<bps)*int(dims) {
				return nil, fmt.Errorf("hash: unmarshal: kmh subspace %d codebook size %d for %d dims", i, len(cents), dims)
			}
			if uint64(off) != next {
				return nil, fmt.Errorf("hash: unmarshal: kmh subspace %d starts at dim %d, want %d", i, off, next)
			}
			next += uint64(dims)
			subs[i] = newKMHSubspace(int(dims), int(off), cents, 1<<bps)
		}
		if next != uint64(dim) {
			return nil, fmt.Errorf("hash: unmarshal: kmh subspaces cover %d of %d dims", next, dim)
		}
		return &kmhHasher{bits: int(bits), bitsPerSS: int(bps), dim: int(dim), subs: subs}, nil
	default:
		return nil, fmt.Errorf("hash: unmarshal: unknown hasher tag %d", tag)
	}
}

// ---- primitive helpers -------------------------------------------------

func writeU32(w *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func readU32(r *bytes.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("hash: unmarshal: %w", err)
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeF64(w *bytes.Buffer, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.Write(b[:])
}

func readF64(r *bytes.Reader) (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("hash: unmarshal: %w", err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func writeString(w *bytes.Buffer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func readString(r *bytes.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("hash: unmarshal: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("hash: unmarshal: %w", err)
	}
	return string(b), nil
}

func writeF64s(w *bytes.Buffer, v []float64) {
	writeU32(w, uint32(len(v)))
	for _, x := range v {
		writeF64(w, x)
	}
}

func readF64s(r *bytes.Reader) ([]float64, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if int(n) > r.Len()/8 {
		return nil, fmt.Errorf("hash: unmarshal: truncated float64 block (%d declared)", n)
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = readF64(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func writeF32s(w *bytes.Buffer, v []float32) {
	writeU32(w, uint32(len(v)))
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		w.Write(b[:])
	}
}

func readF32s(r *bytes.Reader) ([]float32, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if int(n) > r.Len()/4 {
		return nil, fmt.Errorf("hash: unmarshal: truncated float32 block (%d declared)", n)
	}
	out := make([]float32, n)
	var b [4]byte
	for i := range out {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, fmt.Errorf("hash: unmarshal: %w", err)
		}
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	return out, nil
}

func writeMat(w *bytes.Buffer, m *vecmath.Mat) {
	writeU32(w, uint32(m.Rows))
	writeU32(w, uint32(m.Cols))
	for _, v := range m.Data {
		writeF64(w, v)
	}
}

func readMat(r *bytes.Reader) (*vecmath.Mat, error) {
	rows, err := readU32(r)
	if err != nil {
		return nil, err
	}
	cols, err := readU32(r)
	if err != nil {
		return nil, err
	}
	// Cap each dimension before multiplying: two huge uint32s can
	// overflow int64 and slip past the size check (found by fuzzing).
	const maxDim = 1 << 20
	if rows == 0 || cols == 0 || rows > maxDim || cols > maxDim ||
		int64(rows)*int64(cols) > int64(r.Len()/8) {
		return nil, fmt.Errorf("hash: unmarshal: implausible matrix %dx%d", rows, cols)
	}
	m := vecmath.NewMat(int(rows), int(cols))
	for i := range m.Data {
		if m.Data[i], err = readF64(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}
