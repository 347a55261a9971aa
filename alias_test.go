package gqr

import (
	"bytes"
	"testing"
)

// withTail returns a block whose first n*dim floats are base and whose
// spare capacity holds tail rows, the layout of a caller that keeps
// query rows after the base rows in one allocation. The returned slice
// is the base rows only; the tail stays reachable through its capacity.
func withTail(base, tail []float32) []float32 {
	buf := make([]float32, 0, len(base)+len(tail))
	buf = append(buf, base...)
	buf = append(buf, tail...)
	return buf[:len(base)]
}

func checkTail(t *testing.T, step string, block, tail []float32) {
	t.Helper()
	spare := block[len(block):cap(block)]
	for i := range tail {
		if spare[i] != tail[i] {
			t.Fatalf("%s: caller memory past the vector block changed at float %d: %v -> %v",
				step, i, tail[i], spare[i])
		}
	}
}

// TestIndexNeverWritesPastVectorBlock pins the adoption contract of the
// constructors that keep the caller's block by reference (Build, Load,
// Recover): growing the index copies, so the caller's spare capacity
// past the block is never written.
func TestIndexNeverWritesPastVectorBlock(t *testing.T) {
	const dim, n, addN = 8, 300, 100
	base := durVecs(n, dim, 1)
	// The tail outsizes every recovered segment, so a replay append
	// into the caller's capacity would fit there rather than reallocate.
	tail := durVecs(addN, dim, 2)
	adds := durVecs(addN, dim, 3)
	add := func(i int) []float32 { return adds[i*dim : (i+1)*dim] }

	t.Run("Build", func(t *testing.T) {
		block := withTail(base, tail)
		ix, err := Build(block, dim, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Add(add(0)); err != nil {
			t.Fatal(err)
		}
		checkTail(t, "Add", block, tail)
		if _, err := ix.AddWithMeta(add(1), 7); err != nil {
			t.Fatal(err)
		}
		checkTail(t, "AddWithMeta", block, tail)
		if _, err := ix.Update(3, add(2)); err != nil {
			t.Fatal(err)
		}
		checkTail(t, "Update", block, tail)
	})

	t.Run("Load", func(t *testing.T) {
		src, err := Build(base[:len(base):len(base)], dim, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		block := withTail(base, tail)
		ix, err := Load(bytes.NewReader(saveBytes(t, src)), block, dim)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Add(add(0)); err != nil {
			t.Fatal(err)
		}
		checkTail(t, "Load+Add", block, tail)
	})

	t.Run("Recover", func(t *testing.T) {
		dir := t.TempDir()
		src, err := Build(base[:len(base):len(base)], dim, WithSeed(5), WithMemtableSize(32))
		if err != nil {
			t.Fatal(err)
		}
		if err := src.EnableDurability(dir); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < addN; i++ {
			if _, err := src.Add(add(i)); err != nil {
				t.Fatal(err)
			}
		}
		if src.Stats().Seals == 0 {
			t.Fatalf("no seals after %d adds at memtable 32", addN)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		block := withTail(base, tail)
		ix, err := Recover(dir, block, dim, WithMemtableSize(32))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		checkTail(t, "Recover", block, tail)
		if got := ix.Stats().Items; got != n+addN {
			t.Fatalf("recovered %d items, want %d", got, n+addN)
		}
	})
}
