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
	codes := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		c := h.Code(data[i*d : (i+1)*d])
		for s := 0; s < 64; s += 8 {
			codes = append(codes, byte(c>>uint(s)))
		}
	}
	if got := sha(codes); got != wantCodes {
		t.Errorf("Code SHA-256 = %s, pinned %s", got, wantCodes)
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
