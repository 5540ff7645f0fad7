package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkDenseNorm measures ‖X‖ over the benchmark workloads' block
// sides: 32³ (refine_swap) and 64³ (ooc_cube).
func BenchmarkDenseNorm(b *testing.B) {
	for _, side := range []int{32, 64} {
		b.Run(fmt.Sprintf("%d^3", side), func(b *testing.B) {
			x := RandomDense(rand.New(rand.NewSource(3)), side, side, side)
			b.SetBytes(int64(len(x.Data) * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = x.Norm()
			}
		})
	}
}
