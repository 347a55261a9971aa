package quantization

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"gqr/internal/dataset"
)

// TestTrainingBitsPinned pins the trained quantizer bit for bit: the
// SHA-256 of Reranker.Marshal and of the EncodeAll code slab for a
// fixed PQ (m=8, K=64) and OPQ build. Any change to the k-means or
// nearest-centroid kernels that moves a single trained bit fails here,
// however plausible the new codebooks look. The hashes are of amd64
// floating-point results; other architectures may fuse multiply-adds
// in the corpus generator and training, so they skip.
func TestTrainingBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes pinned on amd64")
	}
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "pin", N: 1500, Dim: 36, Clusters: 6, LatentDim: 8, Seed: 91,
	})
	n, d := ds.N(), ds.Dim
	for _, tc := range []struct {
		name           string
		opq            bool
		marshal, codes string
	}{
		{"pq", false,
			"c07f17a0fe166065242384867022aa234f0aea7efe707a070dc3cf28eaf2b06c",
			"ee92c848a968a37c93dbc78e3a2e91c6d138a12bca3d98bc78e31337be98bfdf"},
		{"opq", true,
			"5b272881623f5e5b3035a8b2923a247db4de8a5dc52b1a5c25d6a0bf1f209873",
			"32aa65e92abf06f5c4331f629697f20f89bc8cc932110e85879aad9d158ff95e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr, err := TrainReranker(ds.Vectors, n, d, 8, 64, tc.opq, 5, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(rr.Marshal()); got != tc.marshal {
				t.Errorf("Marshal SHA-256 = %s, pinned %s", got, tc.marshal)
			}
			if got := sha(rr.EncodeAll(ds.Vectors, n, 2)); got != tc.codes {
				t.Errorf("EncodeAll SHA-256 = %s, pinned %s", got, tc.codes)
			}
		})
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
