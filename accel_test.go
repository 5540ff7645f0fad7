package twopcp_test

import (
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"twopcp"
	"twopcp/internal/datasets"
	"twopcp/internal/runstate"
)

// Root-level accelerator suite: the Phase-0 contracts hold through the
// public pipeline on every front-end and at every parallelism setting,
// mirroring the constraint suite in invariants_test.go. (The sketch-layer
// numerics — range-finder orthonormality, core projection, warm-start
// recovery — live in internal/sketch/sketch_test.go.)

// accelCases enumerates the accelerators through the public options (one
// since "sketched" was removed; the subtests keep their names).
func accelCases() []struct {
	name  string
	accel twopcp.Accelerator
} {
	return []struct {
		name  string
		accel twopcp.Accelerator
	}{
		{"tucker", twopcp.AccelTucker},
	}
}

// accelTensor is the shared low-multilinear-rank input: the structured
// data the Tucker compressor targets (a random dense cube would trip the
// structural fallback only at tiny sizes, and says nothing about fit).
func accelTensor(seed int64) *twopcp.Dense {
	spec := datasets.LowMLRankSpec{R: 3, Noise: 0.01}
	return spec.Generate(rand.New(rand.NewSource(seed)), 14, 12, 10)
}

func accelOpts(a twopcp.Accelerator) twopcp.Options {
	opts := baseOpts(twopcp.ConstraintNone, 0)
	opts.Accelerator = a
	return opts
}

// TestAcceleratorInvariantsAcrossFrontends runs the accelerator through
// all three input front-ends and checks the pipeline contract on each:
// bounded fit trace, and bit-exact dense/tiled parity (the Phase-0 sketch
// streams the same blocks from either front-end).
func TestAcceleratorInvariantsAcrossFrontends(t *testing.T) {
	x := accelTensor(21)
	tiledPath := filepath.Join(t.TempDir(), "x.tptl")
	if err := twopcp.SaveTiled(tiledPath, x, []int{3, 2, 2}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range accelCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := accelOpts(tc.accel)

			dense, err := twopcp.Decompose(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertTrace(t, "dense", dense, 1.1) // bounds only: warm-started Phase 2 may trade surrogate fit early

			sparse, err := twopcp.DecomposeSparse(twopcp.FromDense(x), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertTrace(t, "sparse", sparse, 1.1)

			tiled, err := twopcp.DecomposeTiledFile(tiledPath, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertTrace(t, "tiled", tiled, 1.1)

			if len(tiled.FitTrace) != len(dense.FitTrace) {
				t.Fatalf("tiled trace length %d, dense %d", len(tiled.FitTrace), len(dense.FitTrace))
			}
			for i := range dense.FitTrace {
				if tiled.FitTrace[i] != dense.FitTrace[i] {
					t.Fatalf("tiled trace[%d] = %v, dense %v", i, tiled.FitTrace[i], dense.FitTrace[i])
				}
			}
			for m := range dense.Model.Factors {
				if !tiled.Model.Factors[m].Equal(dense.Model.Factors[m]) {
					t.Fatalf("tiled factor %d differs from dense", m)
				}
			}
		})
	}
}

// TestAcceleratorNonnegExpansion: the Tucker warm start composes with the
// nonneg solver — the expanded init is clamped, so every factor entry
// stays ≥ 0 through Phase 1 and Phase 2.
func TestAcceleratorNonnegExpansion(t *testing.T) {
	x := accelTensor(22)
	for _, tc := range accelCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := accelOpts(tc.accel)
			opts.Constraint = twopcp.ConstraintNonneg
			res, err := twopcp.Decompose(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertNonnegModel(t, tc.name, res)
		})
	}
}

// TestAcceleratedFitNearBruteOracle is the accuracy half of the
// acceptance criterion: on a low-multilinear-rank input decomposed to
// effective convergence, the accelerated final fit must land within 1e-3
// of the brute-force fit (the speed half is BenchmarkPhase0Sketch and its
// benchgate baseline, at the full benchmark size).
func TestAcceleratedFitNearBruteOracle(t *testing.T) {
	spec := datasets.LowMLRankSpec{R: 4, Noise: 1e-5, Diag: true}
	x := spec.Generate(rand.New(rand.NewSource(1)), 24, 24, 24)
	opts := twopcp.Options{
		Rank:           8, // overparameterized vs the true CP rank: keeps cold ALS out of odeco local optima
		Partitions:     []int{2},
		Seed:           1,
		Phase1MaxIters: 500,
		Phase1Tol:      1e-6,
		MaxIters:       2000,
		Tol:            1e-10,
	}
	brute, err := twopcp.Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	accel := opts
	accel.Accelerator = twopcp.AccelTucker
	got, err := twopcp.Decompose(x, accel)
	if err != nil {
		t.Fatal(err)
	}
	if !got.RunStats.Accelerated {
		t.Fatal("Phase 0 fell back on a low-multilinear-rank input")
	}
	if got.Fit < 0.99 || brute.Fit < 0.99 {
		t.Fatalf("fits too low to compare: accel %v, brute %v", got.Fit, brute.Fit)
	}
	if d := got.Fit - brute.Fit; d < -1e-3 || d > 1e-3 {
		t.Fatalf("accel fit %v vs brute %v: |delta| %g > 1e-3", got.Fit, brute.Fit, d)
	}
}

// TestTuckerStructuralFallbackIsANoOp: requesting the accelerator on data
// whose Tucker core cannot undercut half the tensor changes nothing. Side
// 16 at rank 8 (+ default oversample 5) gives per-mode core dims 13, and
// 2·13³ ≥ 16³ trips the structural fallback, which is decided from the
// dims before any block is read (internal/sketch pins the zero reads).
func TestTuckerStructuralFallbackIsANoOp(t *testing.T) {
	x := denseUniform(rand.New(rand.NewSource(5)), 0.5, 16)
	opts := func(a twopcp.Accelerator) twopcp.Options {
		return twopcp.Options{
			Rank: 8, Partitions: []int{2}, BufferFraction: 0.5,
			MaxIters: 10, Tol: -1, Seed: 5, Accelerator: a,
		}
	}
	brute, err := twopcp.Decompose(x, opts(twopcp.AccelNone))
	if err != nil {
		t.Fatal(err)
	}
	got, err := twopcp.Decompose(x, opts(twopcp.AccelTucker))
	if err != nil {
		t.Fatal(err)
	}
	if got.RunStats.Accelerated {
		t.Fatal("expected a structural fallback on the unstructured cube")
	}
	sameResult(t, "tucker-fallback", got, brute)
}

// TestAcceleratorDeterminismAcrossParallelism: accelerated runs are
// bit-for-bit identical — factors, FitTrace and Fit — across Phase-1 worker
// counts, kernel worker counts and prefetch depths on every front-end.
// Phase 0's two passes and the tiled fit pass read their blocks on the
// run's Workers too, and merge them in block-id order, which keeps them out
// of every parallelism knob. The tiled file's tiling is not the partition,
// so its Phase-0 and Phase-1 blocks are re-tiled on the fly.
func TestAcceleratorDeterminismAcrossParallelism(t *testing.T) {
	x := accelTensor(33)
	tiledPath := filepath.Join(t.TempDir(), "x.tptl")
	if err := twopcp.SaveTiled(tiledPath, x, []int{3, 2, 2}); err != nil {
		t.Fatal(err)
	}
	frontEnds := []struct {
		name string
		run  func(twopcp.Options) (*twopcp.Result, error)
	}{
		{"dense", func(o twopcp.Options) (*twopcp.Result, error) { return twopcp.Decompose(x, o) }},
		{"sparse", func(o twopcp.Options) (*twopcp.Result, error) {
			return twopcp.DecomposeSparse(twopcp.FromDense(x), o)
		}},
		{"tiled", func(o twopcp.Options) (*twopcp.Result, error) { return twopcp.DecomposeTiledFile(tiledPath, o) }},
	}
	for _, tc := range accelCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, fe := range frontEnds {
				t.Run(fe.name, func(t *testing.T) {
					ref, err := fe.run(accelOpts(tc.accel))
					if err != nil {
						t.Fatal(err)
					}
					if !ref.RunStats.Accelerated {
						t.Fatal("Phase 0 fell back on a low-multilinear-rank input")
					}
					variants := []struct {
						name                                   string
						workers, kernelWorkers, depth, ioWorks int
					}{
						{"serial", 1, 1, 0, 0},
						{"workers3-kernel2", 3, 2, 0, 0},
						{"prefetch2", 1, 1, 2, 2},
						{"workers2-prefetch3-io3", 2, 2, 3, 3},
						{"workers7", 7, 1, 0, 0},
						{"workers-gomaxprocs", runtime.GOMAXPROCS(0), 0, 0, 0},
					}
					for _, v := range variants {
						opts := accelOpts(tc.accel)
						opts.Workers = v.workers
						opts.KernelWorkers = v.kernelWorkers
						opts.PrefetchDepth = v.depth
						opts.IOWorkers = v.ioWorks
						got, err := fe.run(opts)
						if err != nil {
							t.Fatalf("%s: %v", v.name, err)
						}
						assertSameRun(t, v.name, got, ref)
					}
				})
			}
		})
	}
}

// TestAccelOptionValidation: accelerator knobs without an accelerator —
// and malformed accelerator options — are rejected before any work.
func TestAccelOptionValidation(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(1)), 6, 6, 6)
	bad := []twopcp.Options{
		{Rank: 2, Seed: 1, Phase0Rank: 3},                                         // Phase0Rank without accelerator
		{Rank: 2, Seed: 1, SketchOversample: 5},                                   // oversample without accelerator
		{Rank: 2, Seed: 1, Accelerator: twopcp.AccelTucker, Phase0Rank: -1},       // negative rank
		{Rank: 2, Seed: 1, Accelerator: twopcp.AccelTucker, SketchOversample: -2}, // negative oversample
		{Rank: 2, Seed: 1, Accelerator: twopcp.Accelerator(99)},                   // unknown accelerator
		{Rank: 2, Seed: 1, Accelerator: twopcp.Accelerator(2)},                    // the removed "sketched" value
	}
	for i, opts := range bad {
		if _, err := twopcp.Decompose(x, opts); err == nil {
			t.Fatalf("case %d (%+v): invalid accelerator options accepted", i, opts)
		}
	}
	if _, err := twopcp.ParseAccelerator("bogus"); err == nil {
		t.Fatal("ParseAccelerator accepted bogus")
	}
	// The removed accelerator is an error, never silently "none".
	const want = `unknown accelerator "sketched" (want none or tucker)`
	if _, err := twopcp.ParseAccelerator("sketched"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ParseAccelerator(sketched) = %v, want an error containing %q", err, want)
	}
	for _, s := range []string{"none", "tucker"} {
		a, err := twopcp.ParseAccelerator(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != s {
			t.Fatalf("round trip %q -> %q", s, a.String())
		}
	}
}

// TestAcceleratedCheckpointResume covers the accelerator identity in the
// durability layer: checkpointing an accelerated run changes nothing
// bit-for-bit, a completed run no-op resumes, and a resume whose
// accelerator options differ from the manifest is rejected.
func TestAcceleratedCheckpointResume(t *testing.T) {
	x := accelTensor(44)
	for _, tc := range accelCases() {
		t.Run(tc.name, func(t *testing.T) {
			withAccel := func(dir string) twopcp.Options {
				opts := accelOpts(tc.accel)
				opts.Checkpoint = dir
				return opts
			}
			plain, err := twopcp.Decompose(x, withAccel(""))
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "ckpt")
			ckpt, err := twopcp.Decompose(x, withAccel(dir))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "accel-checkpointed", ckpt, plain)

			reOpts := withAccel(dir)
			reOpts.Resume = true
			resumed, err := twopcp.Decompose(x, reOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "accel-noop-resume", resumed, plain)

			// Mismatched accelerator identity is rejected.
			mismatches := []func(*twopcp.Options){
				func(o *twopcp.Options) { o.Accelerator = twopcp.AccelNone; o.Phase0Rank = 0; o.SketchOversample = 0 },
				func(o *twopcp.Options) { o.Phase0Rank = 2 },
				func(o *twopcp.Options) { o.SketchOversample = 9 },
			}
			for i, mutate := range mismatches {
				badOpts := withAccel(dir)
				badOpts.Resume = true
				mutate(&badOpts)
				if _, err := twopcp.Decompose(x, badOpts); !errors.Is(err, runstate.ErrMismatch) {
					t.Fatalf("mismatch case %d: got %v, want ErrMismatch", i, err)
				}
			}
		})
	}
}

// TestResumeOverRemovedAcceleratorIsMismatch: a checkpoint directory written
// by a build that still had the "sketched" accelerator records it in its
// fingerprint. No run of this build can match that, so a resume is refused
// with ErrMismatch — whichever accelerator it asks for — rather than
// panicking or resuming under a different solver.
func TestResumeOverRemovedAcceleratorIsMismatch(t *testing.T) {
	x := accelTensor(44)
	dir := filepath.Join(t.TempDir(), "ckpt")
	opts := accelOpts(twopcp.AccelTucker)
	opts.Checkpoint = dir
	if _, err := twopcp.Decompose(x, opts); err != nil {
		t.Fatal(err)
	}

	// Rewrite the fingerprint as the older build would have written it.
	rewriteManifest(t, dir, `"accelerator":"tucker"`, `"accelerator":"sketched"`)

	for _, accel := range []twopcp.Accelerator{twopcp.AccelTucker, twopcp.AccelNone} {
		re := accelOpts(accel)
		re.Checkpoint, re.Resume = dir, true
		if _, err := twopcp.Decompose(x, re); !errors.Is(err, runstate.ErrMismatch) {
			t.Fatalf("resume as %v over a sketched manifest: got %v, want ErrMismatch", accel, err)
		}
	}
}
