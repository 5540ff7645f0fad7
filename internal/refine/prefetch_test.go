package refine

import (
	"math/rand"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/grid"
	"twopcp/internal/phase1"
	"twopcp/internal/schedule"
)

// prefetchFixture builds one Phase-1 result shared by the equivalence
// runs (Run mutates only the store, never the Phase-1 output).
func prefetchFixture(t *testing.T) *phase1.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	x := lowRank(rng, 3, 18, 18, 18)
	p := grid.UniformCube(3, 18, 3)
	return runPhase1(t, x, p, 3)
}

func runWithDepth(t *testing.T, p1 *phase1.Result, kind schedule.Kind, pol buffer.Policy, depth, workers int) *Result {
	t.Helper()
	eng, err := New(Config{
		Phase1:          p1,
		Store:           blockstore.NewMemStore(),
		Schedule:        kind,
		Policy:          pol,
		BufferFraction:  0.5,
		MaxVirtualIters: 12,
		Tol:             1e-9,
		Seed:            5,
		PrefetchDepth:   depth,
		IOWorkers:       workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameLogicalStats compares the replacement counters that must be
// prefetch-invariant (Prefetches itself, by definition, is not).
func sameLogicalStats(a, b buffer.Stats) bool {
	return a.Fetches == b.Fetches && a.Hits == b.Hits && a.Evictions == b.Evictions &&
		a.WriteBacks == b.WriteBacks && a.Overflows == b.Overflows
}

// TestPrefetchingIsBitForBitEquivalent is the acceptance test of the
// asynchronous pipeline: PrefetchDepth: 0 is the synchronous engine, and
// every prefetching configuration must reproduce its FitTrace, factors
// and swap statistics exactly — the pipeline may only move bytes earlier
// in time.
func TestPrefetchingIsBitForBitEquivalent(t *testing.T) {
	p1 := prefetchFixture(t)
	for _, kind := range schedule.Kinds {
		for _, pol := range []buffer.Policy{buffer.LRU, buffer.Forward} {
			sync := runWithDepth(t, p1, kind, pol, 0, 0)
			for _, cfg := range []struct{ depth, workers int }{
				{1, 2}, {2, 4}, {3, 0}, // {3, 0} exercises the IOWorkers default
			} {
				async := runWithDepth(t, p1, kind, pol, cfg.depth, cfg.workers)
				tag := kind.String() + "/" + pol.String()
				if len(async.FitTrace) != len(sync.FitTrace) {
					t.Fatalf("%s depth %d: trace length %d vs %d", tag, cfg.depth, len(async.FitTrace), len(sync.FitTrace))
				}
				for i := range sync.FitTrace {
					if async.FitTrace[i] != sync.FitTrace[i] {
						t.Fatalf("%s depth %d: FitTrace[%d] = %v, want %v (bit-for-bit)", tag, cfg.depth, i, async.FitTrace[i], sync.FitTrace[i])
					}
				}
				if !sameLogicalStats(async.BufferStats, sync.BufferStats) {
					t.Fatalf("%s depth %d: buffer stats %+v, want %+v", tag, cfg.depth, async.BufferStats, sync.BufferStats)
				}
				if async.VirtualIters != sync.VirtualIters || async.Converged != sync.Converged {
					t.Fatalf("%s depth %d: termination diverged", tag, cfg.depth)
				}
				for mode := range sync.Factors {
					a, b := async.Factors[mode], sync.Factors[mode]
					if a.Rows != b.Rows || a.Cols != b.Cols {
						t.Fatalf("%s depth %d: factor %d shape diverged", tag, cfg.depth, mode)
					}
					for i := range b.Data {
						if a.Data[i] != b.Data[i] {
							t.Fatalf("%s depth %d: factor %d entry %d = %v, want %v (bit-for-bit)", tag, cfg.depth, mode, i, a.Data[i], b.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestDepthZeroMatchesRecordedSynchronousBehaviour pins the satellite
// requirement directly: the PrefetchDepth: 0 configuration reproduces the
// synchronous engine's FitTrace and BufferStats exactly across repeated
// runs (the synchronous engine IS the depth-0 code path; this guards the
// equivalence against future drift, e.g. stats moving off the Acquire
// path).
func TestDepthZeroMatchesRecordedSynchronousBehaviour(t *testing.T) {
	p1 := prefetchFixture(t)
	a := runWithDepth(t, p1, schedule.HilbertOrder, buffer.Forward, 0, 0)
	b := runWithDepth(t, p1, schedule.HilbertOrder, buffer.Forward, 0, 0)
	if a.BufferStats != b.BufferStats {
		t.Fatalf("synchronous runs diverged: %+v vs %+v", a.BufferStats, b.BufferStats)
	}
	if a.StoreStats != b.StoreStats {
		t.Fatalf("synchronous store traffic diverged: %+v vs %+v", a.StoreStats, b.StoreStats)
	}
	if a.BufferStats.Prefetches != 0 {
		t.Fatalf("depth 0 issued %d prefetches", a.BufferStats.Prefetches)
	}
	if a.BufferStats.Fetches == 0 || a.BufferStats.Evictions == 0 {
		t.Fatalf("fixture too loose to exercise replacement: %+v", a.BufferStats)
	}
}

// TestPrefetchOverFileStore runs the pipeline against real files under
// -race: the prefetch workers read the FileStore while the engine
// goroutine reads and writes it back.
func TestPrefetchOverFileStore(t *testing.T) {
	p1 := prefetchFixture(t)
	mkStore := func() blockstore.Store {
		s, err := blockstore.NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(depth, workers int) *Result {
		eng, err := New(Config{
			Phase1: p1, Store: mkStore(),
			Schedule: schedule.ZOrder, Policy: buffer.Forward,
			BufferFraction: 0.5, MaxVirtualIters: 6, Tol: 1e-9, Seed: 5,
			PrefetchDepth: depth, IOWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sync := run(0, 0)
	async := run(2, 3)
	if !sameLogicalStats(async.BufferStats, sync.BufferStats) {
		t.Fatalf("file-store stats diverged: %+v vs %+v", async.BufferStats, sync.BufferStats)
	}
	for mode := range sync.Factors {
		for i := range sync.Factors[mode].Data {
			if async.Factors[mode].Data[i] != sync.Factors[mode].Data[i] {
				t.Fatalf("file-store factors diverged at mode %d entry %d", mode, i)
			}
		}
	}
}
