package twopcp

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"twopcp/internal/obs"
)

func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Fit != want.Fit {
		t.Fatalf("%s: fit %v != %v", name, got.Fit, want.Fit)
	}
	if len(got.FitTrace) != len(want.FitTrace) {
		t.Fatalf("%s: trace length %d != %d", name, len(got.FitTrace), len(want.FitTrace))
	}
	for i := range got.FitTrace {
		if got.FitTrace[i] != want.FitTrace[i] {
			t.Fatalf("%s: FitTrace[%d] = %v, want %v", name, i, got.FitTrace[i], want.FitTrace[i])
		}
	}
	if got.RunStats.Swaps != want.RunStats.Swaps {
		t.Fatalf("%s: swaps %d != %d", name, got.RunStats.Swaps, want.RunStats.Swaps)
	}
	if got.RunStats.BytesRead != want.RunStats.BytesRead || got.RunStats.BytesWritten != want.RunStats.BytesWritten {
		t.Fatalf("%s: store traffic (%d,%d) != (%d,%d) — retries must not count failed ops", name,
			got.RunStats.BytesRead, got.RunStats.BytesWritten, want.RunStats.BytesRead, want.RunStats.BytesWritten)
	}
	for m := range want.Model.Factors {
		g, w := got.Model.Factors[m], want.Model.Factors[m]
		for i := range w.Data {
			if g.Data[i] != w.Data[i] {
				t.Fatalf("%s: factor %d differs at flat index %d", name, m, i)
			}
		}
	}
}

// TestChaosFaultSweepBitIdentical is the in-process chaos harness: runs
// with seeded transient faults injected at increasing rates into both
// phases (block reads, store reads and writes) must — when the retry
// layer heals every fault — produce bit-identical factors, FitTrace and
// I/O accounting to the fault-free run.
func TestChaosFaultSweepBitIdentical(t *testing.T) {
	x := lowRankDense(3, 2, 12, 12, 12)
	base := Options{
		Rank: 2, Partitions: []int{3}, Seed: 7, MaxIters: 8,
		BufferFraction: 0.5,
	}

	clean, err := Decompose(x, base)
	if err != nil {
		t.Fatal(err)
	}

	sawRetries := false
	for _, rate := range []float64{0.001, 0.01, 0.05} {
		opts := base
		opts.MaxRetries = 50
		opts.Chaos = Chaos{ReadRate: rate, WriteRate: rate, Seed: 99}
		res, err := Decompose(x, opts)
		if err != nil {
			t.Fatalf("rate %g: %v", rate, err)
		}
		sameResult(t, "chaos", res, clean)
		if res.RunStats.Retries > 0 {
			sawRetries = true
		}
	}
	if !sawRetries {
		t.Fatal("no retries across the whole sweep — fault injection not exercised")
	}
}

// TestChaosRetryDisabledMatchesClean: with no chaos and no retry policy,
// adding a retry policy alone must not change anything either (the layer
// is pass-through without faults).
func TestChaosRetryDisabledMatchesClean(t *testing.T) {
	x := lowRankDense(3, 2, 10, 10, 10)
	base := Options{Rank: 2, Seed: 7, MaxIters: 6}
	clean, err := Decompose(x, base)
	if err != nil {
		t.Fatal(err)
	}
	withRetry := base
	withRetry.MaxRetries = 8
	res, err := Decompose(x, withRetry)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "retry-no-faults", res, clean)
	if res.RunStats.Retries != 0 {
		t.Fatalf("Retries = %d on a fault-free run", res.RunStats.Retries)
	}
}

// TestChaosPoisonQuarantineAndResume: a permanently failing block
// surfaces as a typed quarantine error; fixing the fault and resuming the
// checkpoint recomputes only what's missing and finishes bit-identical to
// a clean run.
func TestChaosPoisonQuarantineAndResume(t *testing.T) {
	x := lowRankDense(3, 2, 12, 12, 12)
	base := Options{Rank: 2, Partitions: []int{2}, Seed: 7, MaxIters: 6}

	clean, err := Decompose(x, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	poisoned := base
	poisoned.Checkpoint = dir
	poisoned.MaxRetries = 2
	poisoned.Chaos = Chaos{PoisonBlocks: []int{3}, Seed: 1}
	_, err = Decompose(x, poisoned)
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	if len(qe.Blocks) != 1 || qe.Blocks[0] != 3 {
		t.Fatalf("quarantined %v, want [3]", qe.Blocks)
	}

	resumed := base
	resumed.Checkpoint = dir
	resumed.Resume = true
	res, err := Decompose(x, resumed)
	if err != nil {
		t.Fatalf("resume after quarantine: %v", err)
	}
	sameResult(t, "quarantine-resume", res, clean)
}

// TestNonFiniteCellIsAnError: one NaN or +Inf cell is ErrNonFinite on both
// front-ends, never a run that burns its iterations into NaN factors.
// Without an accelerator Phase 1 quarantines the block holding the cell;
// with Tucker the Phase-0 core solve fails before any block runs. Phase 2
// never starts.
func TestNonFiniteCellIsAnError(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		x := lowRankDense(3, 2, 12, 12, 12)
		x.Set(bad, 7, 1, 1) // in block [1 0 0] of the 2×2×2 grid
		tiled := filepath.Join(t.TempDir(), "x.tptl")
		if err := SaveTiled(tiled, x, []int{2, 2, 2}); err != nil {
			t.Fatal(err)
		}
		for _, accel := range []Accelerator{AccelNone, AccelTucker} {
			for _, front := range []string{"dense", "tiled"} {
				name := front + "/" + accel.String()
				var mu sync.Mutex
				events := map[string]int{}
				opts := Options{Rank: 2, Seed: 7, Accelerator: accel,
					Observer: &obs.Observer{OnEvent: func(e obs.Event) {
						mu.Lock()
						events[strings.SplitN(e.Name, ".", 2)[0]]++
						mu.Unlock()
					}}}
				var err error
				if front == "dense" {
					_, err = Decompose(x, opts)
				} else {
					_, err = DecomposeTiledFile(tiled, opts)
				}
				if !errors.Is(err, ErrNonFinite) {
					t.Fatalf("%v %s: err = %v, want ErrNonFinite", bad, name, err)
				}
				var qe *QuarantineError
				if accel == AccelNone {
					if !errors.As(err, &qe) || len(qe.Blocks) != 1 || !strings.Contains(err.Error(), "block [1 0 0]") {
						t.Fatalf("%v %s: err = %v, want block [1 0 0] quarantined", bad, name, err)
					}
				} else if errors.As(err, &qe) || events["phase1"] != 0 {
					t.Fatalf("%v %s: Phase 1 ran (err %v, %d phase1 events)", bad, name, err, events["phase1"])
				}
				if events["phase2"] != 0 {
					t.Fatalf("%v %s: Phase 2 ran", bad, name)
				}
			}
		}
	}
}

// TestChaosInterruptedViaStop: a pre-closed Stop channel drains the run
// with an error wrapping ErrInterrupted; with a checkpoint directory the
// run is resumable bit-exactly.
func TestChaosInterruptedViaStop(t *testing.T) {
	x := lowRankDense(3, 2, 12, 12, 12)
	base := Options{Rank: 2, Partitions: []int{2}, Seed: 7, MaxIters: 6}
	clean, err := Decompose(x, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	stop := make(chan struct{})
	close(stop)
	stopped := base
	stopped.Checkpoint = dir
	stopped.Stop = stop
	_, err = Decompose(x, stopped)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}

	resumed := base
	resumed.Checkpoint = dir
	resumed.Resume = true
	res, err := Decompose(x, resumed)
	if err != nil {
		t.Fatalf("resume after drain: %v", err)
	}
	sameResult(t, "drain-resume", res, clean)
}
