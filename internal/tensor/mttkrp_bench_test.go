package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"twopcp/internal/mat"
	"twopcp/internal/par"
)

// BenchmarkMTTKRP measures the dense MTTKRP kernel on the paper's benchmark
// block shape (256³, rank 16), per mode and per worker count. The recorded
// baselines live in BENCH_kernels.json at the repo root.
func BenchmarkMTTKRP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandomDense(rng, 256, 256, 256)
	const f = 16
	factors := []*mat.Matrix{
		mat.Random(256, f, rng), mat.Random(256, f, rng), mat.Random(256, f, rng),
	}
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "maxprocs"
		}
		for n := 0; n < 3; n++ {
			b.Run(fmt.Sprintf("%s/mode%d", name, n), func(b *testing.B) {
				defer par.PopWorkers(par.PushWorkers(workers))
				out := mat.New(256, f)
				b.SetBytes(int64(len(x.Data) * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MTTKRPInto(out, x, factors, n)
				}
			})
		}
	}
}

// BenchmarkMTTKRP4Mode times a standalone four-way fold (mode 1, 64⁴,
// rank 16, kernels serial): each chunk of 4096 weights is 64 runs of the
// mode-2 factor's rows times a mode-3 row, and no S is kept.
func BenchmarkMTTKRP4Mode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := RandomDense(rng, 64, 64, 64, 64)
	const f = 16
	factors := make([]*mat.Matrix, 4)
	for k := range factors {
		factors[k] = mat.Random(64, f, rng)
	}
	defer par.PopWorkers(par.PushWorkers(1))
	out := mat.New(64, f)
	b.SetBytes(int64(len(x.Data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MTTKRPInto(out, x, factors, 1)
	}
}

// BenchmarkSweepPasses times the passes an ALS sweep over a 64³ block is
// made of, one at a time, kernels serial: the contraction on each mode
// (m = 0 is the S pass, m = 1 and 2 the OuterAdd panels), a fold from a
// contraction (mode 0 from Y_2, the fold every third update of a sweep
// takes), and the mode-0 pass, which a sweep still takes when I_0 is the
// longest mode. docs/performance.md's per-pass table is this benchmark.
func BenchmarkSweepPasses(b *testing.B) {
	defer par.PopWorkers(par.PushWorkers(1))
	rng := rand.New(rand.NewSource(3))
	dims := []int{64, 64, 64}
	x := RandomDense(rng, dims...)
	for _, f := range []int{4, 8, 16} {
		factors := randomFactors(rng, dims, f)
		out := mat.New(64, f)
		var sw Sweep
		sw.Bind(x)
		for m := range dims {
			b.Run(fmt.Sprintf("r%d/contract%d", f, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sw.contract(factors[m], m)
				}
			})
		}
		b.Run(fmt.Sprintf("r%d/fold", f), func(b *testing.B) {
			sw.contract(factors[2], 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Into(out, factors, 0)
			}
		})
		b.Run(fmt.Sprintf("r%d/mode0", f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MTTKRPInto(out, x, factors, 0)
			}
		})
	}
}
