package phase1

import (
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// lowRankDense builds an exactly rank-r dense tensor.
func lowRankDense(rng *rand.Rand, r int, dims ...int) *tensor.Dense {
	factors := make([]*mat.Matrix, len(dims))
	for k, d := range dims {
		factors[k] = mat.Random(d, r, rng)
	}
	return cpals.NewKTensor(factors).Full()
}

func TestNewDenseSourceValidation(t *testing.T) {
	x := tensor.NewDense(4, 4)
	if _, err := NewDenseSource(x, grid.MustNew([]int{4, 4, 4}, []int{2, 2, 2})); err == nil {
		t.Fatal("mode-count mismatch accepted")
	}
	if _, err := NewDenseSource(x, grid.MustNew([]int{4, 5}, []int{2, 1})); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := NewDenseSource(x, grid.MustNew([]int{4, 4}, []int{2, 2})); err != nil {
		t.Fatal(err)
	}
}

func TestRunProducesWellShapedSubFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomDense(rng, 8, 6, 4)
	p := grid.MustNew([]int{8, 6, 4}, []int{2, 3, 2})
	src, err := NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(src, Options{Rank: 3, MaxIters: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sub) != p.NumBlocks() {
		t.Fatalf("blocks = %d", len(res.Sub))
	}
	for id, vec := range p.Positions() {
		_, size := p.Block(vec)
		for m := range size {
			f := res.Sub[id][m]
			if f.Rows != size[m] || f.Cols != 3 {
				t.Fatalf("block %v mode %d factor %d×%d, want %d×3", vec, m, f.Rows, f.Cols, size[m])
			}
		}
		if res.Fits[id] <= 0 || res.Fits[id] > 1+1e-9 {
			t.Fatalf("block %v fit = %g", vec, res.Fits[id])
		}
	}
}

func TestRunReconstructsLowRankBlocks(t *testing.T) {
	// Every block of an exactly rank-2 tensor is itself at most rank 2, so
	// Phase-1 sub-factors must reconstruct each block nearly exactly.
	rng := rand.New(rand.NewSource(2))
	x := lowRankDense(rng, 2, 8, 8, 8)
	p := grid.UniformCube(3, 8, 2)
	src, _ := NewDenseSource(x, p)
	res, err := Run(src, Options{Rank: 2, MaxIters: 400, Tol: 1e-12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id, vec := range p.Positions() {
		from, size := p.Block(vec)
		blk := x.SubTensor(from, size)
		kt := cpals.NewKTensor(res.Sub[id]) // identity core: λ = 1
		if fit := kt.Fit(blk); fit < 0.98 {
			t.Fatalf("block %v reconstruction fit = %g", vec, fit)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandomDense(rng, 6, 6, 6)
	p := grid.UniformCube(3, 6, 2)
	src, _ := NewDenseSource(x, p)
	r1, err := Run(src, Options{Rank: 2, MaxIters: 15, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(src, Options{Rank: 2, MaxIters: 15, Seed: 11, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for id := range r1.Sub {
		for m := range r1.Sub[id] {
			if !r1.Sub[id][m].Equal(r8.Sub[id][m]) {
				t.Fatalf("block %d mode %d differs across worker counts", id, m)
			}
		}
	}
}

func TestRunSparseEmptyBlocks(t *testing.T) {
	x := tensor.NewCOO(8, 8, 8)
	x.Append([]int{0, 1, 2}, 1)
	x.Append([]int{1, 0, 3}, 2)
	x.Append([]int{2, 3, 1}, 3)
	p := grid.UniformCube(3, 8, 2)
	src, err := NewCOOSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(src, Options{Rank: 2, MaxIters: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// All nonzeros are in block (0,0,0); the other 7 blocks are empty.
	zeroBlocks := 0
	for id := range res.Sub {
		allZero := true
		for _, f := range res.Sub[id] {
			if f.MaxAbs() != 0 {
				allZero = false
			}
		}
		if allZero {
			zeroBlocks++
			if res.Fits[id] != 1 {
				t.Fatalf("empty block %d fit = %g", id, res.Fits[id])
			}
		}
	}
	if zeroBlocks != 7 {
		t.Fatalf("zero blocks = %d, want 7", zeroBlocks)
	}
}

// TestRunDenseEmptyBlocksAndLastCell: a dense block counts as empty only if
// every cell is zero. Seven blocks here are, and get zero factors and fit 1
// (paper footnote 3); the eighth is zero but for its very last cell, which
// an early-exit emptiness test reaches last, and must be decomposed.
func TestRunDenseEmptyBlocksAndLastCell(t *testing.T) {
	x := tensor.NewDense(8, 8, 8)
	x.Set(3, 7, 7, 7)
	p := grid.UniformCube(3, 8, 2)
	src, err := NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(src, Options{Rank: 2, MaxIters: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	last := p.Linear([]int{1, 1, 1})
	for id := range res.Sub {
		for m, f := range res.Sub[id] {
			if zero := f.MaxAbs() == 0; zero != (id != last) {
				t.Fatalf("block %d mode %d: all-zero factor = %v", id, m, zero)
			}
		}
		if id != last && (res.Fits[id] != 1 || res.Sweeps[id] != 0) {
			t.Fatalf("empty block %d: fit %g after %d sweeps, want 1 after 0", id, res.Fits[id], res.Sweeps[id])
		}
	}
	if got := cpals.NewKTensor(res.Sub[last]).At(3, 3, 3); math.Abs(got-3) > 1e-6 {
		t.Fatalf("the one-cell block reconstructs its cell as %g, want 3", got)
	}
}

func TestFoldLambdaPreservesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	factors := []*mat.Matrix{mat.Random(4, 2, rng), mat.Random(3, 2, rng), mat.Random(5, 2, rng)}
	kt := cpals.NewKTensor(factors)
	kt.Lambda[0], kt.Lambda[1] = 3.5, 0.25
	want := kt.Full()
	folded := FoldLambda(kt.Clone())
	got := cpals.NewKTensor(folded).Full() // identity weights
	if !got.EqualApprox(want, 1e-10) {
		t.Fatal("FoldLambda changed the model")
	}
}

// TestTiledSourceOutOfCore: Phase 1 over blocks staged on disk as the
// tiles of a .tptl file with the run's own partitioning, two workers, is
// the in-memory run bit for bit.
func TestTiledSourceOutOfCore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandomDense(rng, 6, 6, 6)
	p := grid.UniformCube(3, 6, 2)
	src, err := NewTiledSource(writeTiled(t, x, []int{2, 2, 2}), p)
	if err != nil {
		t.Fatal(err)
	}
	resDisk, err := Run(src, Options{Rank: 2, MaxIters: 15, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	memSrc, _ := NewDenseSource(x, p)
	resMem, err := Run(memSrc, Options{Rank: 2, MaxIters: 15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for id := range resMem.Sub {
		for m := range resMem.Sub[id] {
			if !resMem.Sub[id][m].Equal(resDisk.Sub[id][m]) {
				t.Fatalf("block %d mode %d differs between memory and disk sources", id, m)
			}
		}
	}
}

func TestRunRankValidation(t *testing.T) {
	x := tensor.NewDense(4, 4)
	p := grid.MustNew([]int{4, 4}, []int{2, 2})
	src, _ := NewDenseSource(x, p)
	if _, err := Run(src, Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
}

func TestDecomposeBlockFitSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := grid.MustNew([]int{4, 4, 4}, []int{1, 1, 1})
	x := lowRankDense(rng, 1, 4, 4, 4)
	factors, fit, _, err := DecomposeBlock(x, 0, p, Options{Rank: 1, MaxIters: 200, Tol: 1e-10, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fit < 0.999 {
		t.Fatalf("fit = %g", fit)
	}
	kt := cpals.NewKTensor(factors)
	if math.Abs(kt.Fit(x)-fit) > 1e-6 {
		t.Fatal("folded factors do not reproduce the reported fit")
	}
}

// TestRunConstrainedSolver: threading a solver through Options reaches
// every block — nonneg sub-factors stay element-wise nonnegative after the
// λ^(1/N) folding — and stays bit-deterministic across worker counts.
func TestRunConstrainedSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.RandomDense(rng, 10, 9, 8)
	p := grid.MustNew([]int{10, 9, 8}, []int{2, 2, 2})
	src, err := NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rank: 2, MaxIters: 4, Tol: 1e-8, Seed: 3, Solver: cpals.Nonnegative{}}
	ref, err := Run(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id, sub := range ref.Sub {
		for m, f := range sub {
			for i, v := range f.Data {
				if v < 0 {
					t.Fatalf("block %d mode %d entry %d is %g", id, m, i, v)
				}
			}
		}
	}
	opts.Workers = 3
	again, err := Run(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := range ref.Sub {
		for m := range ref.Sub[id] {
			if !again.Sub[id][m].Equal(ref.Sub[id][m]) {
				t.Fatalf("block %d mode %d differs across worker counts", id, m)
			}
		}
	}
}
