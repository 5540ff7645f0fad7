package experiments

import (
	"math/rand"
	"testing"

	"twopcp/internal/experiments/mapreduce"
	"twopcp/internal/grid"
	"twopcp/internal/phase1"
	"twopcp/internal/tensor"
)

func TestRunMapReduceMatchesWorkerPool(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := tensor.RandomCOO(rng, 0.4, 8, 8, 8)
	p := grid.UniformCube(3, 8, 2)
	opts := phase1.Options{Rank: 2, MaxIters: 15, Seed: 13}

	src, _ := phase1.NewCOOSource(x, p)
	pool, err := phase1.Run(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	mr, counters, err := RunMapReduce(x, p, opts, mapreduce.Config{NumReducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id := range pool.Sub {
		for m := range pool.Sub[id] {
			if !pool.Sub[id][m].EqualApprox(mr.Sub[id][m], 1e-12) {
				t.Fatalf("block %d mode %d: MapReduce result differs from worker pool", id, m)
			}
		}
	}
	if counters.ShuffleBytes == 0 || counters.ReduceGroups == 0 {
		t.Fatalf("counters = %+v", counters)
	}
	// Shuffle volume: one record per nonzero, 3×int32 + float64 payload
	// plus the block-id key string.
	if counters.MapOutputRecords != int64(x.NNZ()) {
		t.Fatalf("map outputs = %d, want %d", counters.MapOutputRecords, x.NNZ())
	}
}

func TestRunMapReduceMemoryFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandomCOO(rng, 0.5, 8, 8, 8)
	p := grid.UniformCube(3, 8, 1) // single block: all records on one reducer
	_, _, err := RunMapReduce(x, p, phase1.Options{Rank: 2, MaxIters: 5, Seed: 1},
		mapreduce.Config{NumReducers: 2, ReducerMemoryBytes: 64})
	if err == nil {
		t.Fatal("expected simulated OOM")
	}
}
