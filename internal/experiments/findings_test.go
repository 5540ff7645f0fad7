package experiments

import (
	"math"
	"testing"
	"time"

	"twopcp/internal/buffer"
	"twopcp/internal/schedule"
)

// TestPaperFindings asserts what the paper's evaluation reports, as
// orderings and bounds rather than bits, at TestHarnessPinned's scale plus
// one more seed and one more grid. TestHarnessPinned says whether the
// harness's numbers moved; this test says whether the moved numbers still
// show what the paper shows, so a change to the engine's numerics must
// pass it unedited. Each bound comes from the paper's text:
//
//   - Figure 12: HO with FOR needs the fewest data swaps per virtual
//     iteration (§VIII-C.1), and FOR never needs more than LRU.
//   - Table II: FOR needs no more swaps than LRU.
//   - Table I: HaTen2 fails on the largest cube, where 2PCP completes.
//   - Figure 13: block-centric accuracy is within a few percent of
//     mode-centric accuracy.
func TestPaperFindings(t *testing.T) {
	t.Run("Figure12", func(t *testing.T) {
		// Swaps do not depend on the data (§VIII-C.1), so one seed serves.
		// The extra 3×3×3 grid checks the policy ordering only: there HO+FOR
		// ties HO+LRU at a ⅓ buffer and FO+FOR beats it at ⅔.
		pinned := []int{2, 4}
		fracs := []float64{1.0 / 3, 2.0 / 3}
		res, err := RunFigure12(Figure12Config{Partitions: []int{2, 3, 4}, BufferFractions: fracs, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{2, 3, 4} {
			for _, frac := range fracs {
				for _, kind := range schedule.Kinds {
					lru := res.Lookup(parts, frac, kind, buffer.LRU)
					forw := res.Lookup(parts, frac, kind, buffer.Forward)
					if forw.Swaps > lru.Swaps {
						t.Errorf("%d parts, buffer %.2f, %v: FOR %g swaps > LRU %g", parts, frac, kind, forw.Swaps, lru.Swaps)
					}
				}
			}
		}
		for _, parts := range pinned {
			for _, frac := range fracs {
				best := res.Lookup(parts, frac, schedule.HilbertOrder, buffer.Forward)
				for _, c := range res.Cells {
					if c.Parts != parts || c.Fraction != frac || (c.Schedule == best.Schedule && c.Policy == best.Policy) {
						continue
					}
					if c.Swaps <= best.Swaps {
						t.Errorf("%d parts, buffer %.2f: %v+%v %g swaps, HO+FOR %g should be fewest",
							parts, frac, c.Schedule, c.Policy, c.Swaps, best.Swaps)
					}
				}
			}
		}
	})

	t.Run("Table2", func(t *testing.T) {
		for _, seed := range []int64{2, 3} {
			res, err := RunTable2(Table2Config{
				Side: 16, Rank: 4, SwapLatency: time.Nanosecond,
				NaiveIters: 1, MaxVirtualIters: 6, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				if r.SwapsFOR > r.SwapsLRU {
					t.Errorf("seed %d, %s: FOR %d swaps > LRU %d", seed, r.Label, r.SwapsFOR, r.SwapsLRU)
				}
			}
		}
	})

	t.Run("Table1", func(t *testing.T) {
		for _, seed := range []int64{1, 2} {
			res, err := RunTable1(Table1Config{Sides: []int{16, 24}, HaTen2MemoryBytes: 36 << 10, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d: 2PCP failed: %v", seed, err)
			}
			large := res.Rows[len(res.Rows)-1]
			if !large.HaTen2Failed {
				t.Errorf("seed %d: HaTen2 should fail at side %d", seed, large.Side)
			}
			if !(large.TwoPCPFit > 0 && large.TwoPCPFit <= 1) {
				t.Errorf("seed %d: 2PCP fit %g at side %d, want a model in (0, 1]", seed, large.TwoPCPFit, large.Side)
			}
		}
	})

	t.Run("Figure13", func(t *testing.T) {
		// "A few percent" is read as 5. The bound is on the absolute
		// accuracy difference: Epinions' accuracies are 0.02–0.035, so a
		// relative difference between two of them is noise. On the dense
		// Face data the relative difference is bounded too.
		const fewPercent = 5
		for _, seed := range []int64{4, 5} {
			res, err := RunFigure13(Figure13Config{
				Datasets: []string{"Epinions", "Face"}, Partitions: []int{2, 3},
				MaxVirtualIters: 10, Rank: 4, Runs: 1, FaceScale: 20, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Cells {
				if d := 100 * math.Abs(c.AccS-c.AccMC); d > fewPercent {
					t.Errorf("seed %d, %s %d parts %v: accuracy %.4f vs mode-centric %.4f, %.2f points apart",
						seed, c.Dataset, c.Parts, c.Schedule, c.AccS, c.AccMC, d)
				}
				if c.Dataset == "Face" && math.Abs(c.RelDiffPct) > fewPercent {
					t.Errorf("seed %d, Face %d parts %v: relative accuracy difference %.2f%%", seed, c.Parts, c.Schedule, c.RelDiffPct)
				}
			}
		}
	})
}
