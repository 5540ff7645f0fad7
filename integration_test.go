package twopcp_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"twopcp"
	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/cpals"
	"twopcp/internal/datasets"
	"twopcp/internal/experiments"
	"twopcp/internal/experiments/mapreduce"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/phase1"
	"twopcp/internal/refine"
	"twopcp/internal/schedule"
	"twopcp/internal/tensor"
	"twopcp/internal/tfile"
)

// These tests exercise cross-module pipelines end to end: MapReduce
// Phase 1 feeding Phase 2, fully file-backed out-of-core runs, higher-mode
// tensors, and the paper's dataset workloads through the public API.

func TestIntegrationMapReducePhase1IntoRefinement(t *testing.T) {
	// Phase 1 on the in-process MapReduce engine (the paper's §IV
	// operators), stitched by Phase 2 — the full distributed pipeline.
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomCOO(rng, 0.4, 12, 12, 12)
	p := grid.UniformCube(3, 12, 2)
	opts := phase1.Options{Rank: 3, MaxIters: 25, Seed: 9}

	p1, counters, err := experiments.RunMapReduce(x, p, opts, mapreduce.Config{NumReducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if counters.ShuffleBytes == 0 {
		t.Fatal("no shuffle traffic recorded")
	}
	eng, err := refine.New(refine.Config{
		Phase1: p1, Store: blockstore.NewMemStore(),
		Schedule: schedule.HilbertOrder, Policy: buffer.Forward,
		BufferFraction: 0.5, MaxVirtualIters: 40, Tol: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	mrFit := cpals.NewKTensor(res.Factors).FitSparse(x)

	// The worker-pool Phase 1 path must land on the same result.
	src, err := phase1.NewCOOSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	p1Pool, err := phase1.Run(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	engPool, err := refine.New(refine.Config{
		Phase1: p1Pool, Store: blockstore.NewMemStore(),
		Schedule: schedule.HilbertOrder, Policy: buffer.Forward,
		BufferFraction: 0.5, MaxVirtualIters: 40, Tol: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	resPool, err := engPool.Run()
	if err != nil {
		t.Fatal(err)
	}
	poolFit := cpals.NewKTensor(resPool.Factors).FitSparse(x)
	if math.Abs(mrFit-poolFit) > 1e-9 {
		t.Fatalf("MapReduce pipeline fit %g != worker-pool fit %g", mrFit, poolFit)
	}
}

func TestIntegrationFullyOutOfCore(t *testing.T) {
	// Everything on disk: blocks read from a tiled .tptl file in Phase 1,
	// data units on a FileStore in Phase 2.
	rng := rand.New(rand.NewSource(2))
	truth := make([]*mat.Matrix, 3)
	for m := range truth {
		truth[m] = mat.Random(10, 2, rng)
	}
	x := cpals.NewKTensor(truth).Full()
	p := grid.UniformCube(3, 10, 2)

	path := filepath.Join(t.TempDir(), "x.tptl")
	if err := twopcp.SaveTiled(path, x, []int{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	r, err := tfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src, err := phase1.NewTiledSource(r, p)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := phase1.Run(src, phase1.Options{Rank: 2, MaxIters: 100, Tol: 1e-8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	units, err := blockstore.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := refine.New(refine.Config{
		Phase1: p1, Store: units,
		Schedule: schedule.ZOrder, Policy: buffer.Forward,
		BufferFraction: 1.0 / 3, MaxVirtualIters: 60, Tol: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	fit := cpals.NewKTensor(res.Factors).Fit(x)
	if fit < 0.97 {
		t.Fatalf("out-of-core fit = %g", fit)
	}
	if res.BufferStats.Fetches == 0 || res.StoreStats.BytesRead == 0 {
		t.Fatal("no disk traffic recorded for an out-of-core run")
	}
}

func TestIntegrationFourModeTensor(t *testing.T) {
	// The system is N-mode generic; verify a 4-mode pipeline end to end.
	rng := rand.New(rand.NewSource(3))
	truth := make([]*twopcp.Matrix, 4)
	dims := []int{8, 6, 6, 4}
	for m := range truth {
		truth[m] = mat.Random(dims[m], 2, rng)
	}
	x := twopcp.NewKTensor(truth).Full()
	res, err := twopcp.Decompose(x, twopcp.Options{
		Rank: 2, Partitions: []int{2, 2, 2, 2},
		Schedule: twopcp.HilbertOrder, Replacement: twopcp.Forward,
		BufferFraction: 0.5, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.95 {
		t.Fatalf("4-mode fit = %g", res.Fit)
	}
	if res.Model.NModes() != 4 {
		t.Fatalf("modes = %d", res.Model.NModes())
	}
}

func TestIntegrationHighModeZOrder(t *testing.T) {
	// The paper argues Z-order stays practical when the mode count grows
	// (Hilbert mapping gets expensive); check a 6-mode pipeline under ZO.
	rng := rand.New(rand.NewSource(4))
	dims := []int{4, 4, 4, 4, 4, 4}
	truth := make([]*twopcp.Matrix, 6)
	for m := range truth {
		truth[m] = mat.Random(dims[m], 1, rng)
	}
	x := twopcp.NewKTensor(truth).Full()
	res, err := twopcp.Decompose(x, twopcp.Options{
		Rank: 1, Partitions: []int{2},
		Schedule: twopcp.ZOrder, Replacement: twopcp.Forward,
		BufferFraction: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.9 {
		t.Fatalf("6-mode fit = %g", res.Fit)
	}
}

func TestIntegrationPaperDatasetsThroughPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset pipelines are slow")
	}
	rng := rand.New(rand.NewSource(5))
	// Sparse rating data.
	epin := datasets.Epinions(rng)
	sres, err := twopcp.DecomposeSparse(epin, twopcp.Options{
		Rank: 4, Partitions: []int{2}, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Fit < -1 || sres.Fit > 1 {
		t.Fatalf("Epinions fit = %g", sres.Fit)
	}
	// Dense image data.
	face := datasets.Face(rng, 20)
	dres, err := twopcp.Decompose(face, twopcp.Options{
		Rank: 6, Partitions: []int{2}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Fit < 0.8 {
		t.Fatalf("Face fit = %g (dense low-rank data should fit well)", dres.Fit)
	}
}

func TestIntegrationSwapInvariantAcrossData(t *testing.T) {
	// Paper §VIII-C.1: swap counts depend only on the pattern and buffer
	// fraction, not the data. Run the same configuration on two different
	// tensors and require identical swap counts.
	swapsFor := func(seed int64) (int64, float64) {
		rng := rand.New(rand.NewSource(seed))
		x := twopcp.RandomDense(rng, 16, 16, 16)
		res, err := twopcp.Decompose(x, twopcp.Options{
			Rank: 2, Partitions: []int{4},
			Schedule: twopcp.ZOrder, Replacement: twopcp.LRU,
			BufferFraction: 1.0 / 3,
			MaxIters:       12, Tol: math.Inf(-1),
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.RunStats.Swaps, res.RunStats.SwapsPerIter
	}
	s1, r1 := swapsFor(100)
	s2, r2 := swapsFor(200)
	if s1 != s2 || r1 != r2 {
		t.Fatalf("swap counts vary with data: %d/%g vs %d/%g", s1, r1, s2, r2)
	}
}
