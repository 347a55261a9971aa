package hash

import (
	"fmt"
	"testing"
)

// Training-cost micro-benchmarks, one per learner, on a 5k×32 block
// with the experiments' default iteration budgets (Table 2's cost
// comparison at micro scale), plus the default ITQ learner on a quarter
// of the search-d128 benchmark workload's 200k×128 block at its 14 bits.
func BenchmarkTrain(b *testing.B) {
	const n, d, bits = 5000, 32, 9
	data := trainData(b, n, d, 99)
	for _, l := range []Learner{
		LSH{},
		PCAH{},
		ITQ{Iterations: 30},
		SH{},
		KMH{SubspaceBits: 3, Iterations: 15},
		SSH{},
	} {
		b.Run(l.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := l.Train(data, n, d, bits, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("itq-50000x128", func(b *testing.B) {
		const n, d, bits = 50000, 128, 14
		data := trainData(b, n, d, 97)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (ITQ{}).Train(data, n, d, bits, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryProjection measures the per-query hashing cost (code +
// flipping costs), the fixed prologue of every search.
func BenchmarkQueryProjection(b *testing.B) {
	const n, d, bits = 2000, 32, 14
	data := trainData(b, n, d, 98)
	for _, l := range []Learner{PCAH{}, SH{}, KMH{SubspaceBits: 2, Iterations: 10}} {
		h, err := l.Train(data, n, d, bits, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%dbit", l.Name(), bits), func(b *testing.B) {
			costs := make([]float64, bits)
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= h.QueryProjection(data[(i%n)*d:(i%n+1)*d], costs)
			}
			benchCode = sink
		})
	}
}

var benchCode uint64
