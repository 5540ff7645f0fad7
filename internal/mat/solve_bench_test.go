package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkRightSolveSPD measures the warm Cholesky fast path of the factor
// update A ← T·S⁻¹ at the shapes the benchmark workloads solve: 32×16 (a
// 32³ block at rank 16), 64×8 and 64×16 (a 64³ block at rank 8 and 16).
func BenchmarkRightSolveSPD(b *testing.B) {
	for _, sh := range []struct{ rows, f int }{{32, 16}, {64, 8}, {64, 16}} {
		b.Run(fmt.Sprintf("%dx%d", sh.rows, sh.f), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			s := randomSPD(sh.f, rng)
			t := Random(sh.rows, sh.f, rng)
			dst := New(sh.rows, sh.f)
			var sc SPDScratch
			RightSolveSPDInto(dst, t, s, &sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				RightSolveSPDInto(dst, t, s, &sc)
			}
		})
	}
}
