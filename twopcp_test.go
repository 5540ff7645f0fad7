package twopcp

import (
	"math"
	"math/rand"
	"testing"
)

// lowRankDense builds an exactly rank-r tensor through the public API.
func lowRankDense(seed int64, r int, dims ...int) *Dense {
	rng := rand.New(rand.NewSource(seed))
	factors := make([]*Matrix, len(dims))
	for k, d := range dims {
		factors[k] = randomMatrix(rng, d, r)
	}
	return NewKTensor(factors).Full()
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

func TestDecomposeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truthFactors := make([]*Matrix, 3)
	for k := range truthFactors {
		truthFactors[k] = randomMatrix(rng, 12, 2)
	}
	truth := NewKTensor(truthFactors)
	x := truth.Full()
	res, err := Decompose(x, Options{Rank: 2, Partitions: []int{2}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.95 {
		t.Fatalf("fit = %g", res.Fit)
	}
	// The recovered components must match the ground truth up to
	// permutation and scaling.
	if c := Congruence(res.Model, truth); c < 0.95 {
		t.Fatalf("ground-truth congruence = %g", c)
	}
	if res.Model == nil || res.Model.Rank() != 2 || res.Model.NModes() != 3 {
		t.Fatalf("model = %+v", res.Model)
	}
	if res.VirtualIters == 0 || len(res.FitTrace) != res.VirtualIters {
		t.Fatalf("iteration accounting: %d iters, %d trace", res.VirtualIters, len(res.FitTrace))
	}
	if res.RunStats.Phase1Time <= 0 || res.RunStats.Phase2Time <= 0 {
		t.Fatal("phase timings missing")
	}
}

func TestDecomposeAllSchedulesAndPolicies(t *testing.T) {
	x := lowRankDense(2, 2, 8, 8, 8)
	for _, sched := range []Schedule{ModeCentric, FiberOrder, ZOrder, HilbertOrder} {
		for _, pol := range []Replacement{LRU, MRU, Forward} {
			res, err := Decompose(x, Options{
				Rank: 2, Schedule: sched, Replacement: pol,
				BufferFraction: 0.5, Seed: 3,
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", sched, pol, err)
			}
			if res.Fit < 0.9 {
				t.Fatalf("%v/%v: fit = %g", sched, pol, res.Fit)
			}
		}
	}
}

func TestDecomposeSwapAccounting(t *testing.T) {
	x := RandomDense(rand.New(rand.NewSource(3)), 16, 16, 16)
	full, err := Decompose(x, Options{Rank: 2, Partitions: []int{4}, BufferFraction: 1, MaxIters: 10, Tol: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Decompose(x, Options{Rank: 2, Partitions: []int{4}, BufferFraction: 1.0 / 3, MaxIters: 10, Tol: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.RunStats.Swaps <= full.RunStats.Swaps {
		t.Fatalf("tight buffer should swap more: %d vs %d", tight.RunStats.Swaps, full.RunStats.Swaps)
	}
	if tight.RunStats.SwapsPerIter <= 0 || tight.RunStats.BytesRead == 0 {
		t.Fatalf("I/O accounting missing: %+v", tight)
	}
}

// TestRunStatsCountBytesMoved pins RunStats' store traffic on both stores:
// a write-back moves one A partition, a swap moves one whole unit, and
// prefetching may only add whole-unit reads on top.
func TestRunStatsCountBytesMoved(t *testing.T) {
	x := RandomDense(rand.New(rand.NewSource(3)), 16, 16, 16)
	const aBytes = 4 * 2 * 8            // a 4-row partition at rank 2
	const unitBytes = aBytes * (1 + 16) // plus the slab's 16 sub-factors
	run := func(storeDir string, depth int) RunStats {
		res, err := Decompose(x, Options{
			Rank: 2, Partitions: []int{4}, BufferFraction: 1.0 / 3, MaxIters: 10, Tol: 1e-9, Seed: 1,
			StoreDir: storeDir, PrefetchDepth: depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.RunStats
	}
	mem := run("", 0)
	if mem.WriteBacks == 0 || mem.BytesWritten != mem.WriteBacks*aBytes {
		t.Errorf("%d write-backs wrote %d bytes, want %d each", mem.WriteBacks, mem.BytesWritten, aBytes)
	}
	if mem.BytesRead != mem.Swaps*unitBytes {
		t.Errorf("%d swaps read %d bytes, want %d each", mem.Swaps, mem.BytesRead, unitBytes)
	}
	if file := run(t.TempDir(), 0); file.BytesRead != mem.BytesRead || file.BytesWritten != mem.BytesWritten {
		t.Errorf("file store moved (%d, %d) bytes, mem store (%d, %d)", file.BytesRead, file.BytesWritten, mem.BytesRead, mem.BytesWritten)
	}
	for _, dir := range []string{"", t.TempDir()} {
		ahead := run(dir, 2)
		if extra := ahead.BytesRead - mem.BytesRead; ahead.BytesWritten != mem.BytesWritten || extra < 0 || extra%unitBytes != 0 {
			t.Errorf("store %q, prefetch 2: (%d, %d) bytes; want %d written and whole units read on top of %d",
				dir, ahead.BytesRead, ahead.BytesWritten, mem.BytesWritten, mem.BytesRead)
		}
	}
}

func TestDecomposeSparseEndToEnd(t *testing.T) {
	x := RandomCOO(rand.New(rand.NewSource(4)), 0.2, 12, 10, 8)
	res, err := DecomposeSparse(x, Options{Rank: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < -1 || res.Fit > 1 {
		t.Fatalf("implausible fit %g", res.Fit)
	}
	dims := res.Model.Dims()
	if dims[0] != 12 || dims[1] != 10 || dims[2] != 8 {
		t.Fatalf("model dims = %v", dims)
	}
}

func TestDecomposeFileStore(t *testing.T) {
	x := lowRankDense(5, 2, 8, 8, 8)
	dir := t.TempDir()
	res, err := Decompose(x, Options{Rank: 2, StoreDir: dir, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Decompose(x, Options{Rank: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fit-mem.Fit) > 1e-9 {
		t.Fatalf("file-store fit %g != mem fit %g", res.Fit, mem.Fit)
	}
}

func TestOptionsValidation(t *testing.T) {
	x := NewDense(4, 4)
	if _, err := Decompose(x, Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := Decompose(x, Options{Rank: 2, Partitions: []int{2, 2, 2}}); err == nil {
		t.Fatal("partition arity mismatch accepted")
	}
	if _, err := Decompose(x, Options{Rank: 2, Partitions: []int{0}}); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestPartitionsBroadcastAndClamp(t *testing.T) {
	// One value broadcasts to all modes, clamped to mode sizes.
	x := lowRankDense(6, 1, 8, 8, 3)
	res, err := Decompose(x, Options{Rank: 1, Partitions: []int{4}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.9 {
		t.Fatalf("fit = %g", res.Fit)
	}
}

func TestDeterminism(t *testing.T) {
	x := RandomDense(rand.New(rand.NewSource(8)), 10, 10, 10)
	r1, err := Decompose(x, Options{Rank: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Decompose(x, Options{Rank: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fit != r2.Fit || r1.RunStats.Swaps != r2.RunStats.Swaps {
		t.Fatalf("nondeterministic: fit %g/%g swaps %d/%d", r1.Fit, r2.Fit, r1.RunStats.Swaps, r2.RunStats.Swaps)
	}
}
