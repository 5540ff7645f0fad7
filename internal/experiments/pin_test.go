package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twopcp/internal/schedule"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the harness pin in testdata")

// TestHarnessPinned pins, bit for bit, every number the harness reports
// that does not come from a clock: Table I's fit columns, Figure 12's and
// Table II's swap counts, Figure 13's accuracies and the convergence
// traces under least squares and nonneg. Each float is written as its
// 16-digit hex bit pattern. A change to how the harness drives the engine
// must leave this file as it is.
//
// Regenerate after an intentional numeric change with:
//
//	go test ./internal/experiments -run TestHarnessPinned -update-golden
func TestHarnessPinned(t *testing.T) {
	var b strings.Builder
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

	t1, err := RunTable1(Table1Config{Sides: []int{16, 24}, HaTen2MemoryBytes: 36 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t1.Rows {
		fmt.Fprintf(&b, "table1 side %d nnz %d 2pcp %s haten2 %s failed %v\n",
			r.Side, r.NNZ, bits(r.TwoPCPFit), bits(r.HaTen2Fit), r.HaTen2Failed)
	}

	f12, err := RunFigure12(Figure12Config{Partitions: []int{2, 4}, BufferFractions: []float64{1.0 / 3, 2.0 / 3}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f12.Cells {
		fmt.Fprintf(&b, "fig12 %d %.4f %v %v %s\n", c.Parts, c.Fraction, c.Schedule, c.Policy, bits(c.Swaps))
	}

	f13, err := RunFigure13(Figure13Config{
		Datasets: []string{"Epinions", "Face"}, Partitions: []int{2},
		MaxVirtualIters: 10, Rank: 4, Runs: 1, FaceScale: 20, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f13.Cells {
		fmt.Fprintf(&b, "fig13 %s %d %v mc %s s %s diff %s\n",
			c.Dataset, c.Parts, c.Schedule, bits(c.AccMC), bits(c.AccS), bits(c.RelDiffPct))
	}

	t2, err := RunTable2(Table2Config{
		Side: 16, Rank: 4, SwapLatency: time.Nanosecond,
		NaiveIters: 1, MaxVirtualIters: 6, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t2.Rows {
		fmt.Fprintf(&b, "table2 %s lru %d for %d\n", r.Label, r.SwapsLRU, r.SwapsFOR)
	}

	for _, constraint := range []string{"", "nonneg"} {
		cv, err := RunConvergence(ConvergenceConfig{
			Side: 16, Parts: 2, Rank: 4, VirtualIters: 10, Seed: 10, Constraint: constraint,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range schedule.Kinds {
			fmt.Fprintf(&b, "convergence %q %v", constraint, kind)
			for _, f := range cv.Traces[kind] {
				fmt.Fprintf(&b, " %s", bits(f))
			}
			b.WriteString("\n")
		}
	}

	path := filepath.Join("testdata", "harness-pin.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("harness output drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
