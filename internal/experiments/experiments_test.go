package experiments

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twopcp/internal/buffer"
	"twopcp/internal/schedule"
)

// Tests run the experiments at reduced scale — enough to verify the
// qualitative shapes the paper reports without multi-minute runs.

func TestTable1SmallScale(t *testing.T) {
	res, err := RunTable1(Table1Config{
		Sides: []int{16, 24},
		// Sized between the two workloads' per-reducer volumes:
		// nnz·(key + 8·rank)/reducers ≈ 17KB at side 16, ≈ 57KB at side 24.
		HaTen2MemoryBytes: 36 << 10,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	small, large := res.Rows[0], res.Rows[1]
	// nnz grows with the cube.
	if large.NNZ <= small.NNZ {
		t.Fatalf("nnz did not grow: %d vs %d", small.NNZ, large.NNZ)
	}
	// The smaller workload fits under the HaTen2 memory cap, the larger
	// fails — the paper's FAILS row.
	if small.HaTen2Failed {
		t.Fatal("small workload should not fail")
	}
	if !large.HaTen2Failed {
		t.Fatal("large workload should exceed the reducer cap")
	}
	// 2PCP converged fit beats HaTen2's 1-iteration fit (paper: 0.077 vs
	// 0.0011).
	if small.TwoPCPFit <= small.HaTen2Fit {
		t.Fatalf("2PCP fit %g should beat 1-iter HaTen2 fit %g", small.TwoPCPFit, small.HaTen2Fit)
	}
	out := res.String()
	if !strings.Contains(out, "FAILS") {
		t.Fatalf("table should render FAILS:\n%s", out)
	}
}

func TestFigure11Extraction(t *testing.T) {
	res := &Table1Result{Rows: []Table1Row{
		{NNZ: 100, TwoPCP: 2 * time.Second},
		{NNZ: 400, TwoPCP: 7 * time.Second},
	}}
	pts := Figure11(res)
	if len(pts) != 2 || pts[1].NNZ != 400 || pts[1].Seconds != 7 {
		t.Fatalf("points = %+v", pts)
	}
	if s := FormatFigure11(pts); !strings.Contains(s, "Figure 11") {
		t.Fatalf("format: %s", s)
	}
}

func TestTable2SmallScale(t *testing.T) {
	res, err := RunTable2(Table2Config{
		Side: 16, Rank: 4, SwapLatency: 500 * time.Microsecond,
		NaiveIters: 4, MaxVirtualIters: 12, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Paper shape #1: block-based 2PCP beats naive out-of-core CP.
	for _, row := range res.Rows {
		if row.TotalFOR >= res.Naive {
			t.Fatalf("%s: 2PCP total %v should beat naive %v", row.Label, row.TotalFOR, res.Naive)
		}
	}
	// Paper shape #2: FOR needs no more swaps than LRU.
	for _, row := range res.Rows {
		if row.SwapsFOR > row.SwapsLRU {
			t.Fatalf("%s: FOR swaps %d > LRU %d", row.Label, row.SwapsFOR, row.SwapsLRU)
		}
	}
	// Per-block Phase-1 work shrinks with more partitions (smaller blocks).
	// Asserted on cells × sweeps, not on Phase1PerBlock: the wall times
	// here are ~100 µs and invert under parallel package load.
	if res.Rows[1].Phase1WorkPerBlock >= res.Rows[0].Phase1WorkPerBlock {
		t.Fatalf("per-block work should shrink: %d vs %d",
			res.Rows[0].Phase1WorkPerBlock, res.Rows[1].Phase1WorkPerBlock)
	}
	if s := res.String(); !strings.Contains(s, "Naive CP") {
		t.Fatalf("render: %s", s)
	}
}

func TestFigure12Shapes(t *testing.T) {
	res, err := RunFigure12(Figure12Config{
		Partitions:      []int{2, 4},
		BufferFractions: []float64{1.0 / 3, 2.0 / 3},
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 parts × 2 fracs × 4 schedules × 3 policies.
	if len(res.Cells) != 2*2*4*3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	third := 1.0 / 3
	// Paper shape #1: MC with LRU is the worst strategy — it swaps on
	// every access (ΣK per virtual iteration) at 1/3 buffer.
	mcLRU := res.Lookup(4, third, schedule.ModeCentric, buffer.LRU)
	if math.Abs(mcLRU.Swaps-12) > 1e-9 { // ΣK = 3·4
		t.Fatalf("MC+LRU swaps = %g, want 12 (every access misses)", mcLRU.Swaps)
	}
	// Paper shape #2: the block-centric schedules need far less I/O than
	// MC under the same LRU budget.
	for _, kind := range []schedule.Kind{schedule.FiberOrder, schedule.ZOrder, schedule.HilbertOrder} {
		c := res.Lookup(4, third, kind, buffer.LRU)
		if c.Swaps >= mcLRU.Swaps/2 {
			t.Fatalf("%v+LRU swaps = %g, want ≪ MC's %g", kind, c.Swaps, mcLRU.Swaps)
		}
	}
	// Paper shape #3: FOR ≤ LRU for every schedule; strictly better
	// somewhere.
	better := false
	for _, parts := range []int{2, 4} {
		for _, frac := range []float64{third, 2.0 / 3} {
			for _, kind := range schedule.Kinds {
				lru := res.Lookup(parts, frac, kind, buffer.LRU)
				forw := res.Lookup(parts, frac, kind, buffer.Forward)
				if forw.Swaps > lru.Swaps+1e-9 {
					t.Fatalf("parts=%d frac=%.2f %v: FOR %g > LRU %g", parts, frac, kind, forw.Swaps, lru.Swaps)
				}
				if forw.Swaps < lru.Swaps-1e-9 {
					better = true
				}
			}
		}
	}
	if !better {
		t.Fatal("FOR never beat LRU anywhere")
	}
	// Paper shape #4: more buffer, fewer swaps (HO+FOR case).
	hoTight := res.Lookup(4, third, schedule.HilbertOrder, buffer.Forward)
	hoWide := res.Lookup(4, 2.0/3, schedule.HilbertOrder, buffer.Forward)
	if hoWide.Swaps > hoTight.Swaps {
		t.Fatalf("more buffer should not increase swaps: %g vs %g", hoWide.Swaps, hoTight.Swaps)
	}
	if s := res.String(); !strings.Contains(s, "Figure 12") {
		t.Fatalf("render: %s", s)
	}
}

func TestFigure13SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy sweep is slow")
	}
	res, err := RunFigure13(Figure13Config{
		Datasets:        []string{"Epinions", "Face"},
		Partitions:      []int{2},
		MaxVirtualIters: 30,
		Rank:            4,
		Runs:            2,
		FaceScale:       20, // 24×32×5
		Seed:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*1*3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// Accuracies must be sane and the dense Face dataset must show nearly
	// identical accuracy across schedules (paper: "virtually identical").
	for _, c := range res.Cells {
		if c.AccMC < -1 || c.AccMC > 1 || c.AccS < -1 || c.AccS > 1 {
			t.Fatalf("implausible accuracy: %+v", c)
		}
		if c.Dataset == "Face" && math.Abs(c.RelDiffPct) > 10 {
			t.Fatalf("Face accuracy should be schedule-insensitive: %+v", c)
		}
	}
	if s := res.String(); !strings.Contains(s, "Figure 13") {
		t.Fatalf("render: %s", s)
	}
}

func TestParamGridMatchesPaper(t *testing.T) {
	g := DefaultParamGrid()
	if g.Combinations() != 3*3*2*4*3 {
		t.Fatalf("combinations = %d", g.Combinations())
	}
	s := g.String()
	for _, want := range []string{"2×2×2", "8×8×8", "MC", "HO", "LRU", "FOR", "100; 200"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table III missing %q:\n%s", want, s)
		}
	}
}

func TestPatternForClampsParts(t *testing.T) {
	p := patternFor([]int{100, 3}, 8)
	if p.K[0] != 8 || p.K[1] != 3 {
		t.Fatalf("K = %v", p.K)
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("median(nil)")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
}

func TestFigure12FourModeShapes(t *testing.T) {
	// The paper's formalism is N-mode generic; the I/O shapes must hold on
	// a 4-mode tensor too: MC+LRU misses every access, HO+FOR far fewer.
	res, err := RunFigure12(Figure12Config{
		Partitions:      []int{2, 4},
		BufferFractions: []float64{1.0 / 3},
		NModes:          4,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	third := 1.0 / 3
	mcLRU := res.Lookup(4, third, schedule.ModeCentric, buffer.LRU)
	if mcLRU.Swaps != 16 { // ΣK = 4·4 per virtual iteration, all misses
		t.Fatalf("4-mode MC+LRU swaps = %g, want 16", mcLRU.Swaps)
	}
	hoFOR := res.Lookup(4, third, schedule.HilbertOrder, buffer.Forward)
	if hoFOR.Swaps >= mcLRU.Swaps/3 {
		t.Fatalf("4-mode HO+FOR swaps = %g, want ≪ %g", hoFOR.Swaps, mcLRU.Swaps)
	}
}

func TestConvergenceTraces(t *testing.T) {
	res, err := RunConvergence(ConvergenceConfig{
		Side: 16, Parts: 2, Rank: 4, VirtualIters: 10, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 4 {
		t.Fatalf("traces = %d", len(res.Traces))
	}
	for kind, tr := range res.Traces {
		if len(tr) != 10 {
			t.Fatalf("%v trace length = %d", kind, len(tr))
		}
		// All schedules end in the same neighbourhood (same fixed point).
		if math.Abs(tr[9]-res.Traces[schedule.ModeCentric][9]) > 0.05 {
			t.Fatalf("%v final fit %g far from MC %g", kind, tr[9], res.Traces[schedule.ModeCentric][9])
		}
	}
	if s := res.String(); !strings.Contains(s, "Convergence") {
		t.Fatalf("render: %s", s)
	}
}

// TestConvergenceCheckpointPartialResume: resuming an interrupted
// convergence suite must work even for schedule kinds whose subdirectory
// was never created before the crash (resume-or-create per kind), and the
// traces must match an uncheckpointed run exactly.
func TestConvergenceCheckpointPartialResume(t *testing.T) {
	cfg := ConvergenceConfig{Side: 12, Parts: 2, Rank: 2, VirtualIters: 4, Seed: 10}
	plain, err := RunConvergence(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ck := cfg
	ck.IO = IO{Checkpoint: dir}
	if _, err := RunConvergence(ck); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash before the last kinds started: drop all but the
	// first kind's checkpoint subdirectory, then resume the suite.
	for _, kind := range schedule.Kinds[1:] {
		if err := os.RemoveAll(filepath.Join(dir, "convergence-"+kind.String())); err != nil {
			t.Fatal(err)
		}
	}
	re := cfg
	re.IO = IO{Checkpoint: dir, Resume: true}
	res, err := RunConvergence(re)
	if err != nil {
		t.Fatalf("partial resume: %v", err)
	}
	for kind, tr := range plain.Traces {
		got := res.Traces[kind]
		if len(got) != len(tr) {
			t.Fatalf("%v trace length %d vs %d", kind, len(got), len(tr))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Fatalf("%v trace[%d] = %v, want %v", kind, i, got[i], tr[i])
			}
		}
	}
}

// TestConvergenceDrainedInPhase1Resumes: a stop requested before the study
// starts drains the first run inside Phase 1. The error matches ErrStopped,
// and a Resume from the checkpoint directory returns the traces of an
// uncheckpointed run bit for bit.
func TestConvergenceDrainedInPhase1Resumes(t *testing.T) {
	cfg := ConvergenceConfig{Side: 12, Parts: 2, Rank: 2, VirtualIters: 4, Seed: 10}
	plain, err := RunConvergence(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	stop := make(chan struct{})
	close(stop)
	drained := cfg
	drained.IO = IO{Checkpoint: dir, Stop: stop}
	_, err = RunConvergence(drained)
	if !errors.Is(err, ErrStopped) || !strings.Contains(err.Error(), "phase 1") {
		t.Fatalf("drained study: err = %v, want ErrStopped from phase 1", err)
	}
	re := cfg
	re.IO = IO{Checkpoint: dir, Resume: true}
	res, err := RunConvergence(re)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	for kind, tr := range plain.Traces {
		got := res.Traces[kind]
		if len(got) != len(tr) {
			t.Fatalf("%v trace length %d vs %d", kind, len(got), len(tr))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Fatalf("%v trace[%d] = %v, want %v", kind, i, got[i], tr[i])
			}
		}
	}
}
