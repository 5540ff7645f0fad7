package serve

import (
	"math/rand"
	"testing"

	"twopcp/internal/mat"
)

// benchModel builds the standard benchmark model: rank 16 over a
// 64×64×64 cube, the shape BENCH_serve.json baselines.
func benchModel(b *testing.B) *Model {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	rank := 16
	lambda := make([]float64, rank)
	for f := range lambda {
		lambda[f] = rng.Float64() + 0.5
	}
	factors := make([]*mat.Matrix, 3)
	for n := range factors {
		m := mat.New(64, rank)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		factors[n] = m
	}
	mdl, err := New(lambda, factors, Config{})
	if err != nil {
		b.Fatal(err)
	}
	return mdl
}

// BenchmarkPointRead measures single-cell reconstruction — the latency
// floor of the query service. Gated by benchgate: zero allocations at
// steady state. Latency through the daemon is the benchmark's query_mix
// workload (serve.cell_us).
func BenchmarkPointRead(b *testing.B) {
	mdl := benchModel(b)
	const nCoords = 1024
	coords := make([][]int, nCoords)
	rng := rand.New(rand.NewSource(23))
	for i := range coords {
		coords[i] = []int{rng.Intn(64), rng.Intn(64), rng.Intn(64)}
	}
	// Warm the workspace pool.
	for _, at := range coords {
		if _, err := mdl.Reconstruct(at); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		v, _ := mdl.Reconstruct(coords[i%nCoords])
		sink += v
	}
	_ = sink
}

// BenchmarkTopK measures a full top-10 sweep over one mode (64 entities)
// against a fixed entity pair. Gated by benchgate: zero allocations at
// steady state (query_mix's serve.topk_us is the latency).
func BenchmarkTopK(b *testing.B) {
	mdl := benchModel(b)
	at := []int{7, 11, 0}
	dst := make([]Scored, 0, 10)
	var err error
	if dst, err = mdl.TopK(2, at, 10, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = mdl.TopK(2, at, 10, dst)
	}
	_ = dst
}

// BenchmarkNN measures a nearest-neighbor sweep (64 candidate rows,
// rank-16 dot products with precomputed norms).
func BenchmarkNN(b *testing.B) {
	mdl := benchModel(b)
	dst := make([]Scored, 0, 10)
	var err error
	if dst, err = mdl.NN(0, 5, 10, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = mdl.NN(0, 5, 10, dst)
	}
	_ = dst
}

// BenchmarkBlockRead measures an 8×8×8 sub-block reconstruction (512
// cells, one mat.FibersMatMulAdd call per slab). Allocation-free.
func BenchmarkBlockRead(b *testing.B) {
	mdl := benchModel(b)
	lo, hi := []int{8, 16, 24}, []int{16, 24, 32}
	block := make([]float64, 0, 512)
	var err error
	if block, err = mdl.ReconstructBlock(lo, hi, block); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block, _ = mdl.ReconstructBlock(lo, hi, block)
	}
	_ = block
}
