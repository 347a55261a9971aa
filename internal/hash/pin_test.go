package hash

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestKMHTrainingBitsPinned pins a trained KMH hasher (k-means plus the
// affinity refinement) bit for bit through the SHA-256 of its marshalled
// bytes and of the codes it assigns. A kernel change that moves any
// trained bit fails here. The hashes are of amd64 floating-point
// results; other architectures may fuse multiply-adds, so they skip.
func TestKMHTrainingBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes pinned on amd64")
	}
	const n, d, bits = 1500, 36, 16
	data := trainData(t, n, d, 93)
	h, err := (KMH{Procs: 2}).Train(data, n, d, bits, 94)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantMarshal = "39b5add96fb302e4a295387e3f62855c6f65c051c54c8339a6a899b98c488be5"
		wantCodes   = "65c4a04c0be9ce699a67bb46920d1247818005e0a732c67e1ac32fd63a0d9289"
	)
	if got := sha(b); got != wantMarshal {
		t.Errorf("Marshal SHA-256 = %s, pinned %s", got, wantMarshal)
	}
	if got := sha(codeBytes(h, data, n, d)); got != wantCodes {
		t.Errorf("Code SHA-256 = %s, pinned %s", got, wantCodes)
	}
}

// TestITQTrainingBitsPinned pins trained ITQ hashers bit for bit, as
// TestKMHTrainingBitsPinned does KMH: the SHA-256 of the marshalled
// hasher and of its codes over the training rows, at one and two
// workers (the build is bit-identical at any worker count, so both
// share one pin). The second case has more rows than one tile of the
// rotation loop's kernels and a code length that is not a multiple of
// their four-lane vectors.
func TestITQTrainingBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes pinned on amd64")
	}
	for _, c := range []struct {
		n, d, bits, iters      int
		wantMarshal, wantCodes string
	}{
		{300, 16, 8, 10,
			"57f6443ca72748e2564c820404a563e00bfa26aa37220b370e3896adc38f2ebd",
			"bc4951f7bf9676df65d8e13c6cc8dc80a04927e5ab2003fff5b2e8e0e94b6c7b"},
		{1501, 40, 14, 20,
			"53999223da8baceecd6c51613395b73ed41aa002df703812b57e63843ff5028b",
			"818b77537b759d310ffa04c6c590d05ff0ba8b41b70969e4c9ac411222e7e611"},
	} {
		data := trainData(t, c.n, c.d, 95)
		for _, procs := range []int{1, 2} {
			h, err := (ITQ{Iterations: c.iters, Procs: procs}).Train(data, c.n, c.d, c.bits, 96)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Marshal(h)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(b); got != c.wantMarshal {
				t.Errorf("n=%d bits=%d procs=%d: Marshal SHA-256 = %s, pinned %s", c.n, c.bits, procs, got, c.wantMarshal)
			}
			if got := sha(codeBytes(h, data, c.n, c.d)); got != c.wantCodes {
				t.Errorf("n=%d bits=%d procs=%d: Code SHA-256 = %s, pinned %s", c.n, c.bits, procs, got, c.wantCodes)
			}
		}
	}
}

// codeBytes is the little-endian concatenation of h's codes for the n
// rows of data.
func codeBytes(h Hasher, data []float32, n, d int) []byte {
	codes := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		c := h.Code(data[i*d : (i+1)*d])
		for s := 0; s < 64; s += 8 {
			codes = append(codes, byte(c>>uint(s)))
		}
	}
	return codes
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
