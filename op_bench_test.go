package twopcp_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"twopcp"
)

// noisyCube writes a side³ rank-r tensor with uniform factors and 5 %
// Gaussian noise to dir, tiled tiles³, and returns its path.
func noisyCube(b *testing.B, dir string, side, rank, tiles int) string {
	rng := rand.New(rand.NewSource(1))
	factors := make([]*twopcp.Matrix, 3)
	for k := range factors {
		m := &twopcp.Matrix{Rows: side, Cols: rank, Data: make([]float64, side*rank)}
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		factors[k] = m
	}
	x := twopcp.NewKTensor(factors).Full()
	sigma := 0.05 * x.Norm() / math.Sqrt(float64(len(x.Data)))
	for i := range x.Data {
		x.Data[i] += sigma * rng.NormFloat64()
	}
	input := filepath.Join(dir, "input.tptl")
	if err := twopcp.SaveTiled(input, x, []int{tiles, tiles, tiles}); err != nil {
		b.Fatal(err)
	}
	return input
}

// benchmarkOp times DecomposeFile(input, opts) and reports the last fit.
func benchmarkOp(b *testing.B, input string, opts twopcp.Options) {
	b.ResetTimer()
	var fit float64
	for i := 0; i < b.N; i++ {
		res, _, err := twopcp.DecomposeFile(input, opts)
		if err != nil {
			b.Fatal(err)
		}
		fit = res.Fit
	}
	b.ReportMetric(fit, "fit")
}

// BenchmarkRefineSwapOp runs the op of the refine_swap benchmark workload
// in-process, for CPU profiles of where an op's time goes: a 128³ rank-16
// tensor (5 % noise) tiled 4×4×4 on disk, 64 blocks of 32³, two Phase-1
// sweeps, 40 Phase-2 virtual iterations with a third of the units
// buffered and the rest in a FileStore, one worker. Profile with
//
//	go test -run xxx -bench RefineSwapOp -benchtime 40x -cpuprofile cpu.prof .
//	go tool pprof -top -cum twopcp.test cpu.prof
func BenchmarkRefineSwapOp(b *testing.B) {
	dir := b.TempDir()
	input := noisyCube(b, dir, 128, 16, 4)
	benchmarkOp(b, input, twopcp.Options{
		Rank: 16, Partitions: []int{4}, BufferFraction: 1.0 / 3,
		Phase1MaxIters: 2, Phase1Tol: 1e-300, MaxIters: 40, Tol: math.Inf(-1),
		Workers: 1, KernelWorkers: 1, Seed: 1,
		StoreDir: filepath.Join(dir, "store"),
	})
}

// BenchmarkOocCubeOp runs the op of the ooc_cube benchmark workload
// in-process, the same way: a 192³ rank-8 tensor (5 % noise) tiled 3×3×3,
// 27 blocks of 64³, a fixed 20 Phase-1 sweeps each, 4 Phase-2 virtual
// iterations with a third of the units buffered, one worker. Phase 1's
// dense MTTKRP is most of it. Profile with
//
//	go test -run xxx -bench OocCubeOp -benchtime 10x -cpuprofile cpu.prof .
//	go tool pprof -top -cum twopcp.test cpu.prof
func BenchmarkOocCubeOp(b *testing.B) {
	dir := b.TempDir()
	input := noisyCube(b, dir, 192, 8, 3)
	benchmarkOp(b, input, twopcp.Options{
		Rank: 8, Partitions: []int{3}, BufferFraction: 1.0 / 3,
		Phase1MaxIters: 20, Phase1Tol: 1e-300, MaxIters: 4, Tol: math.Inf(-1),
		Workers: 1, KernelWorkers: 1, Seed: 1,
		StoreDir: filepath.Join(dir, "store"),
	})
}
