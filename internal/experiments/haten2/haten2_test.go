package haten2

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/cpals"
	"twopcp/internal/experiments/mapreduce"
	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

func TestDecomposeMatchesInMemoryALS(t *testing.T) {
	// With identical seeds the MapReduce ALS must match cpals numerically:
	// it is the same algorithm with the MTTKRP computed remotely.
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomCOO(rng, 0.3, 6, 5, 4)
	kt, info, err := Decompose(x, Options{Rank: 2, MaxIters: 8, Seed: 7, MR: mapreduce.Config{NumReducers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ref, refInfo, err := cpals.DecomposeSparse(x, cpals.Options{
		Rank: 2, MaxIters: 8, Tol: 1e-300, Rng: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(info.Fit-refInfo.Fit) > 1e-9 {
		t.Fatalf("fit %g != cpals fit %g", info.Fit, refInfo.Fit)
	}
	for m := range kt.Factors {
		if !kt.Factors[m].EqualApprox(ref.Factors[m], 1e-9) {
			t.Fatalf("mode %d factors differ from in-memory ALS", m)
		}
	}
}

func TestShuffleVolumeScalesWithNNZAndRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandomCOO(rng, 0.3, 8, 8, 8)
	_, small, err := Decompose(x, Options{Rank: 2, MaxIters: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, large, err := Decompose(x, Options{Rank: 8, MaxIters: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle bytes ≈ nnz·(key + 8F)·N jobs: quadrupling F should roughly
	// triple-to-quadruple traffic.
	if large.Counters.ShuffleBytes < 3*small.Counters.ShuffleBytes {
		t.Fatalf("shuffle did not scale with rank: %d vs %d",
			small.Counters.ShuffleBytes, large.Counters.ShuffleBytes)
	}
	if small.Jobs != 3 || large.Jobs != 3 {
		t.Fatalf("jobs = %d/%d, want 3 per iteration", small.Jobs, large.Jobs)
	}
}

func TestMemoryCapFailure(t *testing.T) {
	// Dense-as-sparse input with a tiny reducer budget reproduces the
	// paper's "HaTen2 FAILS" row.
	rng := rand.New(rand.NewSource(3))
	dense := tensor.RandomDense(rng, 12, 12, 12)
	x := tensor.FromDense(dense)
	_, info, err := Decompose(x, Options{
		Rank: 4, MaxIters: 1, Seed: 1,
		MR: mapreduce.Config{NumReducers: 4, ReducerMemoryBytes: 2048},
	})
	if !errors.Is(err, ErrResources) {
		t.Fatalf("err = %v, want ErrResources", err)
	}
	if !errors.Is(err, mapreduce.ErrMemoryExceeded) {
		t.Fatalf("err = %v, want wrapped ErrMemoryExceeded", err)
	}
	if info.Counters.MaxReducerBytes == 0 {
		t.Fatal("failure info should carry traffic counters")
	}
}

func TestLowRankRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	factors := []*mat.Matrix{
		mat.Random(6, 2, rng), mat.Random(5, 2, rng), mat.Random(4, 2, rng),
	}
	full := cpals.NewKTensor(factors).Full()
	x := tensor.FromDense(full)
	_, info, err := Decompose(x, Options{Rank: 2, MaxIters: 60, Tol: 1e-9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if info.Fit < 0.99 {
		t.Fatalf("fit = %g", info.Fit)
	}
}

func TestSingleIterationLowFit(t *testing.T) {
	// The paper's Table I fit note: at 1 iteration from random init the
	// fit is far from converged — reproduce that contrast.
	rng := rand.New(rand.NewSource(5))
	dense := tensor.RandomDense(rng, 10, 10, 10)
	x := tensor.FromDense(dense)
	_, one, err := Decompose(x, Options{Rank: 4, MaxIters: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	_, many, err := Decompose(x, Options{Rank: 4, MaxIters: 25, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if one.Fit >= many.Fit {
		t.Fatalf("1-iter fit %g should be below converged fit %g", one.Fit, many.Fit)
	}
}

func TestRankValidation(t *testing.T) {
	x := tensor.NewCOO(2, 2)
	if _, _, err := Decompose(x, Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
}
