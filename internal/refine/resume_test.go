package refine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/phase1"
	"twopcp/internal/runstate"
	"twopcp/internal/schedule"
	"twopcp/internal/tensor"
)

func resumePhase1(t *testing.T) *phase1.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandomDense(rng, 12, 12, 12)
	p := grid.UniformCube(3, 12, 3)
	src, err := phase1.NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := phase1.Run(src, phase1.Options{Rank: 3, MaxIters: 3, Tol: 1e-3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return p1
}

func resumeMeta() runstate.Meta {
	return runstate.Meta{InputKind: "test", Dims: []int{12, 12, 12}, Partitions: []int{3, 3, 3}, Rank: 3, Seed: 7}
}

func sameTrace(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: trace has %d entries, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: trace[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func sameFactors(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Factors) != len(want.Factors) {
		t.Fatalf("%s: %d factor modes, want %d", name, len(got.Factors), len(want.Factors))
	}
	for m := range got.Factors {
		g, w := got.Factors[m], want.Factors[m]
		if g.Rows != w.Rows || g.Cols != w.Cols {
			t.Fatalf("%s: factor %d is %dx%d, want %dx%d", name, m, g.Rows, g.Cols, w.Rows, w.Cols)
		}
		for i := range g.Data {
			if g.Data[i] != w.Data[i] {
				t.Fatalf("%s: factor %d differs at flat index %d: %v vs %v", name, m, i, g.Data[i], w.Data[i])
			}
		}
	}
}

// tearNewestSlot cuts in half the Phase-2 slot file holding the checkpoint
// with the higher sequence number — what a crash in the middle of that
// checkpoint's write leaves — and reports whether there were two slots to
// choose from (with one, there is no older checkpoint to fall back on).
// A slot is a 16-byte record header, then the little-endian sequence
// number (internal/runstate/phase2.go).
func tearNewestSlot(t *testing.T, dir string) bool {
	t.Helper()
	var newest string
	var newestSeq uint64
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("phase2-%d.ckpt", i))
		data, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		if seq := binary.LittleEndian.Uint64(data[16:]); seq > newestSeq {
			newest, newestSeq = path, seq
		}
	}
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestCheckpointedRunMatchesPlainRun verifies that enabling checkpointing
// does not perturb the computation: factors, FitTrace and swap counts are
// bit-identical with and without a Checkpointer attached.
func TestCheckpointedRunMatchesPlainRun(t *testing.T) {
	p1 := resumePhase1(t)
	base := Config{
		Phase1: p1, Schedule: schedule.HilbertOrder, Policy: buffer.Forward,
		BufferFraction: 0.5, MaxVirtualIters: 8, Tol: math.Inf(-1), Seed: 5,
	}

	plainCfg := base
	plainCfg.Store = blockstore.NewMemStore()
	eng, err := New(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	rs, err := runstate.Open(t.TempDir(), resumeMeta(), 27, false)
	if err != nil {
		t.Fatal(err)
	}
	ckptCfg := base
	ckptCfg.Store = blockstore.NewMemStore()
	ckptCfg.Checkpoint = rs
	ckptCfg.CheckpointEverySteps = 1
	eng2, err := New(ckptCfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := eng2.Run()
	if err != nil {
		t.Fatal(err)
	}

	sameTrace(t, "checkpointed", ckpt.FitTrace, plain.FitTrace)
	sameFactors(t, "checkpointed", ckpt, plain)
	if ckpt.BufferStats.Fetches != plain.BufferStats.Fetches {
		t.Fatalf("checkpointed run swapped %d, plain %d", ckpt.BufferStats.Fetches, plain.BufferStats.Fetches)
	}
}

// TestResumeBitForBitAcrossInterruptionPoints is the crash-recovery
// contract: an engine killed (via an injected store fault) at many
// different points and resumed from its last checkpoint must produce
// bit-for-bit identical FitTrace, factors and swap counts to an
// uninterrupted run — under both an eviction-heavy Forward/Hilbert
// configuration and an LRU/Z-order one, and at several checkpoint
// cadences. Every interruption is replayed a second time with the newest
// checkpoint torn as well (the crash landed inside its write): the resume
// starts from the checkpoint before it and must arrive at the same bits.
func TestResumeBitForBitAcrossInterruptionPoints(t *testing.T) {
	p1 := resumePhase1(t)
	cases := []struct {
		name   string
		kind   schedule.Kind
		pol    buffer.Policy
		every  int
		tol    float64
		solver cpals.Solver
	}{
		{"forward-hilbert-every1", schedule.HilbertOrder, buffer.Forward, 1, math.Inf(-1), nil},
		{"lru-zorder-every3", schedule.ZOrder, buffer.LRU, 3, math.Inf(-1), nil},
		{"converging-mru-fiber", schedule.FiberOrder, buffer.MRU, 2, 1e-4, nil},
		// Constrained runs replay bit-for-bit too: the nonneg HALS update
		// warm-starts from the checkpointed A (state the checkpoint fully
		// carries) and the ridge damping is stateless.
		{"nonneg-forward-hilbert", schedule.HilbertOrder, buffer.Forward, 1, math.Inf(-1), cpals.Nonnegative{}},
		{"ridge-lru-zorder", schedule.ZOrder, buffer.LRU, 2, math.Inf(-1), cpals.Ridge{Lambda: 0.05}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Phase1: p1, Schedule: tc.kind, Policy: tc.pol,
				BufferFraction: 0.5, MaxVirtualIters: 6, Tol: tc.tol, Seed: 5,
				Solver: tc.solver,
			}
			refCfg := base
			refCfg.Store = blockstore.NewMemStore()
			eng, err := New(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}

			failAfters := []int64{3, 11, 29, 61, 113}
			torn := 0
			for i := 0; i < 2*len(failAfters); i++ {
				failAfter, tear := failAfters[i/2], i%2 == 1
				dir := filepath.Join(t.TempDir(), "ckpt")
				rs, err := runstate.Open(dir, resumeMeta(), 27, false)
				if err != nil {
					t.Fatal(err)
				}
				faulty := blockstore.NewFaultyStore(blockstore.NewMemStore())
				faulty.SetPlan(blockstore.FaultPlan{ReadOutageFrom: failAfter, ReadOutageLen: 1, Permanent: true})
				killedCfg := base
				killedCfg.Store = faulty
				killedCfg.Checkpoint = rs
				killedCfg.CheckpointEverySteps = tc.every
				killed, err := New(killedCfg)
				if err == nil {
					_, err = killed.Run()
				}
				if err == nil {
					// The fault landed beyond the run's total reads; nothing
					// was interrupted, so there is nothing to resume-test.
					continue
				}
				if !errors.Is(err, blockstore.ErrInjected) {
					t.Fatalf("failAfter=%d: unexpected error %v", failAfter, err)
				}
				rs.Close()
				if tear {
					if !tearNewestSlot(t, dir) {
						continue // killed before its second checkpoint
					}
					torn++
				}

				rs2, err := runstate.Open(dir, resumeMeta(), 27, true)
				if err != nil {
					t.Fatalf("failAfter=%d: reopen: %v", failAfter, err)
				}
				resumeCfg := base
				resumeCfg.Store = blockstore.NewMemStore()
				resumeCfg.Checkpoint = rs2
				resumeCfg.CheckpointEverySteps = tc.every
				eng2, err := New(resumeCfg)
				if err != nil {
					t.Fatalf("failAfter=%d: resume New: %v", failAfter, err)
				}
				res, err := eng2.Run()
				if err != nil {
					t.Fatalf("failAfter=%d: resume Run: %v", failAfter, err)
				}
				sameTrace(t, tc.name, res.FitTrace, ref.FitTrace)
				sameFactors(t, tc.name, res, ref)
				if res.BufferStats.Fetches != ref.BufferStats.Fetches {
					t.Fatalf("failAfter=%d: resumed run swapped %d, reference %d",
						failAfter, res.BufferStats.Fetches, ref.BufferStats.Fetches)
				}
				if res.VirtualIters != ref.VirtualIters || res.Converged != ref.Converged {
					t.Fatalf("failAfter=%d: resumed (%d iters, converged=%v) vs reference (%d, %v)",
						failAfter, res.VirtualIters, res.Converged, ref.VirtualIters, ref.Converged)
				}
			}
			if torn == 0 {
				t.Fatal("no interruption point left two checkpoints to tear one of")
			}
		})
	}
}

// TestResumeWithAsyncPipeline checks both crossings between the
// synchronous engine and the prefetching pipeline: a checkpoint taken by a
// synchronous engine resumed with prefetch on, and a checkpoint taken
// *while* the asynchronous pipeline was running (in-flight prefetches and
// background write-backs at snapshot time) resumed synchronously. Results
// must be identical in both directions — the pipeline knobs are excluded
// from the manifest fingerprint by design.
func TestResumeWithAsyncPipeline(t *testing.T) {
	p1 := resumePhase1(t)
	base := Config{
		Phase1: p1, Schedule: schedule.HilbertOrder, Policy: buffer.Forward,
		BufferFraction: 0.5, MaxVirtualIters: 6, Tol: math.Inf(-1), Seed: 5,
	}
	refCfg := base
	refCfg.Store = blockstore.NewMemStore()
	eng, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name                       string
		killDepth, killWorkers     int
		resumeDepth, resumeWorkers int
	}{
		{"sync-kill-async-resume", 0, 0, 2, 3},
		{"async-kill-sync-resume", 2, 3, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, failAfter := range []int64{9, 17, 41} {
				dir := filepath.Join(t.TempDir(), "ckpt")
				rs, err := runstate.Open(dir, resumeMeta(), 27, false)
				if err != nil {
					t.Fatal(err)
				}
				faulty := blockstore.NewFaultyStore(blockstore.NewMemStore())
				faulty.SetPlan(blockstore.FaultPlan{ReadOutageFrom: failAfter, ReadOutageLen: 1, Permanent: true})
				killedCfg := base
				killedCfg.Store = faulty
				killedCfg.Checkpoint = rs
				killedCfg.CheckpointEverySteps = 1
				killedCfg.PrefetchDepth = tc.killDepth
				killedCfg.IOWorkers = tc.killWorkers
				killed, err := New(killedCfg)
				if err == nil {
					_, err = killed.Run()
				}
				if err == nil {
					continue // fault landed beyond this run's reads
				}
				if !errors.Is(err, blockstore.ErrInjected) {
					t.Fatalf("failAfter=%d: unexpected error %v", failAfter, err)
				}

				rs2, err := runstate.Open(dir, resumeMeta(), 27, true)
				if err != nil {
					t.Fatal(err)
				}
				resumeCfg := base
				resumeCfg.Store = blockstore.NewMemStore()
				resumeCfg.Checkpoint = rs2
				resumeCfg.PrefetchDepth = tc.resumeDepth
				resumeCfg.IOWorkers = tc.resumeWorkers
				eng2, err := New(resumeCfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng2.Run()
				if err != nil {
					t.Fatal(err)
				}
				sameTrace(t, tc.name, res.FitTrace, ref.FitTrace)
				sameFactors(t, tc.name, res, ref)
				if res.BufferStats.Fetches != ref.BufferStats.Fetches {
					t.Fatalf("failAfter=%d: resumed run swapped %d, reference %d",
						failAfter, res.BufferStats.Fetches, ref.BufferStats.Fetches)
				}
			}
		})
	}
}
