package refine

import (
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/phase1"
	"twopcp/internal/schedule"
	"twopcp/internal/tensor"
)

// lowRank builds an exactly rank-r dense tensor.
func lowRank(rng *rand.Rand, r int, dims ...int) *tensor.Dense {
	factors := make([]*mat.Matrix, len(dims))
	for k, d := range dims {
		factors[k] = mat.Random(d, r, rng)
	}
	return cpals.NewKTensor(factors).Full()
}

// runPhase1 decomposes x over pattern p.
func runPhase1(t *testing.T, x *tensor.Dense, p *grid.Pattern, rank int) *phase1.Result {
	t.Helper()
	src, err := phase1.NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := phase1.Run(src, phase1.Options{Rank: rank, MaxIters: 150, Tol: 1e-9, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func newEngine(t *testing.T, p1 *phase1.Result, kind schedule.Kind, pol buffer.Policy, frac float64) *Engine {
	t.Helper()
	e, err := New(Config{
		Phase1:          p1,
		Store:           blockstore.NewMemStore(),
		Schedule:        kind,
		Policy:          pol,
		BufferFraction:  frac,
		MaxVirtualIters: 60,
		Tol:             1e-6,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Store: blockstore.NewMemStore()}); err == nil {
		t.Fatal("missing phase1 accepted")
	}
}

func TestRefineRecoversLowRankTensor(t *testing.T) {
	// End-to-end invariant: Phase 1 + Phase 2 on an exactly rank-2 tensor
	// must yield full factors whose Kruskal model fits X nearly perfectly.
	rng := rand.New(rand.NewSource(1))
	x := lowRank(rng, 2, 8, 8, 8)
	p := grid.UniformCube(3, 8, 2)
	p1 := runPhase1(t, x, p, 2)

	for _, kind := range schedule.Kinds {
		e := newEngine(t, p1, kind, buffer.LRU, 1)
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		kt := cpals.NewKTensor(res.Factors)
		if fit := kt.Fit(x); fit < 0.98 {
			t.Fatalf("%v: final fit = %g (trace %v)", kind, fit, res.FitTrace)
		}
	}
}

func TestRefineImprovesOverPhase1Stitching(t *testing.T) {
	// The refined model must fit at least as well as the raw Phase-1
	// reference initialization it starts from.
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandomDense(rng, 8, 8, 8) // full-rank: imperfect fit
	p := grid.UniformCube(3, 8, 2)
	p1 := runPhase1(t, x, p, 3)
	e := newEngine(t, p1, schedule.HilbertOrder, buffer.Forward, 1)
	initialFit := e.SurrogateFit()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	finalFit := res.FitTrace[len(res.FitTrace)-1]
	if finalFit < initialFit-1e-9 {
		t.Fatalf("refinement degraded surrogate fit: %g -> %g", initialFit, finalFit)
	}
}

func TestSurrogateFitTraceNonDecreasing(t *testing.T) {
	// The grid update is block-coordinate descent on the surrogate
	// objective, so the surrogate fit must be (numerically) monotone.
	rng := rand.New(rand.NewSource(3))
	x := lowRank(rng, 3, 8, 6, 4)
	p := grid.MustNew([]int{8, 6, 4}, []int{2, 3, 2})
	p1 := runPhase1(t, x, p, 3)
	e := newEngine(t, p1, schedule.ZOrder, buffer.LRU, 1)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.FitTrace); i++ {
		if res.FitTrace[i] < res.FitTrace[i-1]-1e-7 {
			t.Fatalf("surrogate fit decreased at virtual iteration %d: %v", i, res.FitTrace)
		}
	}
}

func TestAllSchedulesReachSameFixedPointFit(t *testing.T) {
	// Different schedules apply the same updates in different orders; on an
	// easy low-rank problem they must all converge to ≈ the same fit.
	rng := rand.New(rand.NewSource(4))
	x := lowRank(rng, 2, 8, 8, 8)
	p := grid.UniformCube(3, 8, 2)
	p1 := runPhase1(t, x, p, 2)
	fits := map[schedule.Kind]float64{}
	for _, kind := range schedule.Kinds {
		e := newEngine(t, p1, kind, buffer.LRU, 1)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		kt := cpals.NewKTensor(res.Factors)
		fits[kind] = kt.Fit(x)
	}
	for kind, fit := range fits {
		if math.Abs(fit-fits[schedule.ModeCentric]) > 0.02 {
			t.Fatalf("%v fit %g deviates from MC fit %g", kind, fit, fits[schedule.ModeCentric])
		}
	}
}

func TestVirtualIterationAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandomDense(rng, 8, 8, 8)
	p := grid.UniformCube(3, 8, 2)
	p1 := runPhase1(t, x, p, 2)
	e, err := New(Config{
		Phase1: p1, Store: blockstore.NewMemStore(),
		Schedule: schedule.FiberOrder, Policy: buffer.LRU,
		MaxVirtualIters: 7, Tol: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualIters != 7 || len(res.FitTrace) != 7 {
		t.Fatalf("virtual iters = %d, trace = %d", res.VirtualIters, len(res.FitTrace))
	}
	if res.Converged {
		t.Fatal("should have stopped on MaxVirtualIters, not convergence")
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := lowRank(rng, 1, 6, 6, 6)
	p := grid.UniformCube(3, 6, 2)
	p1 := runPhase1(t, x, p, 1)
	e, err := New(Config{
		Phase1: p1, Store: blockstore.NewMemStore(),
		Schedule: schedule.ModeCentric, Policy: buffer.LRU,
		MaxVirtualIters: 100, Tol: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.VirtualIters >= 100 {
		t.Fatalf("expected early convergence, got %d iters (converged=%v)", res.VirtualIters, res.Converged)
	}
}

func TestFactorsShapeMatchesTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandomDense(rng, 10, 6, 4)
	p := grid.MustNew([]int{10, 6, 4}, []int{4, 3, 2}) // uneven split on mode 0
	p1 := runPhase1(t, x, p, 2)
	e := newEngine(t, p1, schedule.FiberOrder, buffer.LRU, 1)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for m, f := range res.Factors {
		if f.Rows != x.Dims[m] || f.Cols != 2 {
			t.Fatalf("factor %d is %d×%d, want %d×2", m, f.Rows, f.Cols, x.Dims[m])
		}
	}
}

func TestSwapCountingTightBuffer(t *testing.T) {
	// With a full-size buffer, steady-state swaps per iteration must be ~0
	// (everything resident); with a 1/3 buffer they must be positive.
	rng := rand.New(rand.NewSource(8))
	x := tensor.RandomDense(rng, 16, 16, 16)
	p := grid.UniformCube(3, 16, 4)
	p1 := runPhase1(t, x, p, 2)

	eFull := newEngine(t, p1, schedule.ZOrder, buffer.LRU, 1)
	resFull, err := eFull.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Full buffer: only cold-start fetches (ΣK = 12 units).
	if resFull.BufferStats.Fetches != 12 {
		t.Fatalf("full-buffer fetches = %d, want 12 cold misses", resFull.BufferStats.Fetches)
	}

	eTight := newEngine(t, p1, schedule.ZOrder, buffer.LRU, 1.0/3)
	resTight, err := eTight.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resTight.BufferStats.Fetches <= 12 {
		t.Fatalf("tight-buffer fetches = %d, expected swapping", resTight.BufferStats.Fetches)
	}
	if resTight.SwapsPerVirtualIter <= 0 {
		t.Fatal("swaps per virtual iteration not computed")
	}
}

func TestForwardPolicyNotWorseThanLRU(t *testing.T) {
	// The paper's headline claim, as an invariant on a fixed workload:
	// FOR swaps ≤ LRU swaps for the same block-centric schedule & buffer.
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandomDense(rng, 16, 16, 16)
	p := grid.UniformCube(3, 16, 4)
	p1 := runPhase1(t, x, p, 2)

	run := func(pol buffer.Policy) int64 {
		e, err := New(Config{
			Phase1: p1, Store: blockstore.NewMemStore(),
			Schedule: schedule.HilbertOrder, Policy: pol,
			BufferFraction:  1.0 / 3,
			MaxVirtualIters: 30, Tol: 1e-12,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.BufferStats.Fetches
	}
	forward, lru := run(buffer.Forward), run(buffer.LRU)
	if forward > lru {
		t.Fatalf("FOR fetched %d > LRU %d", forward, lru)
	}
}

func TestDeterministicRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := tensor.RandomDense(rng, 8, 8, 8)
	p := grid.UniformCube(3, 8, 2)
	p1 := runPhase1(t, x, p, 2)
	run := func() *Result {
		e := newEngine(t, p1, schedule.HilbertOrder, buffer.Forward, 0.5)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.BufferStats != r2.BufferStats {
		t.Fatalf("buffer stats differ: %+v vs %+v", r1.BufferStats, r2.BufferStats)
	}
	for m := range r1.Factors {
		if !r1.Factors[m].Equal(r2.Factors[m]) {
			t.Fatalf("factors differ on mode %d", m)
		}
	}
}

func TestFileStoreBackedRun(t *testing.T) {
	// True out-of-core: the same run against a FileStore must produce
	// identical factors to the MemStore run.
	rng := rand.New(rand.NewSource(11))
	x := tensor.RandomDense(rng, 6, 6, 6)
	p := grid.UniformCube(3, 6, 2)
	p1 := runPhase1(t, x, p, 2)

	mem := newEngine(t, p1, schedule.ZOrder, buffer.Forward, 0.5)
	memRes, err := mem.Run()
	if err != nil {
		t.Fatal(err)
	}
	fstore, err := blockstore.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fe, err := New(Config{
		Phase1: p1, Store: fstore,
		Schedule: schedule.ZOrder, Policy: buffer.Forward,
		BufferFraction:  0.5,
		MaxVirtualIters: 60, Tol: 1e-6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	fileRes, err := fe.Run()
	if err != nil {
		t.Fatal(err)
	}
	for m := range memRes.Factors {
		if !memRes.Factors[m].EqualApprox(fileRes.Factors[m], 1e-12) {
			t.Fatalf("mode %d factors differ between Mem and File stores", m)
		}
	}
	if memRes.BufferStats.Fetches != fileRes.BufferStats.Fetches {
		t.Fatal("swap counts differ between stores")
	}
}

func TestEmptyBlocksDoNotBreakRefinement(t *testing.T) {
	// Sparse tensor with whole empty blocks: the zero U factors must flow
	// through T/S without NaNs.
	x := tensor.NewCOO(8, 8, 8)
	rng := rand.New(rand.NewSource(13))
	idx := make([]int, 3)
	for i := 0; i < 40; i++ {
		// Confine nonzeros to the first octant.
		for m := range idx {
			idx[m] = rng.Intn(4)
		}
		x.Append(idx, rng.Float64()+0.5)
	}
	x.Canonicalize()
	p := grid.UniformCube(3, 8, 2)
	src, err := phase1.NewCOOSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := phase1.Run(src, phase1.Options{Rank: 2, MaxIters: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, p1, schedule.ZOrder, buffer.Forward, 0.5)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for m, f := range res.Factors {
		for _, v := range f.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("mode %d factor contains NaN/Inf", m)
			}
		}
	}
}
