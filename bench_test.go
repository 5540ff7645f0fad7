// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VIII) at test-friendly scale. Each benchmark reports the paper's
// metric for its experiment via b.ReportMetric (seconds, swaps per virtual
// iteration, or accuracy difference) in addition to Go's timing output.
// Run: go test -bench=. -benchmem
//
// EXPERIMENTS.md records paper-vs-measured values for the full-scale runs
// (cmd/experiments).
package twopcp_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"twopcp"
	"twopcp/internal/buffer"
	"twopcp/internal/experiments"
	"twopcp/internal/experiments/haten2"
	"twopcp/internal/experiments/mapreduce"
	"twopcp/internal/grid"
	"twopcp/internal/schedule"
	"twopcp/internal/tensor"
)

// BenchmarkTable1 regenerates Table I: 2PCP vs HaTen2 execution time on
// dense tensors of growing size (paper: 500³–1500³ at density 0.2; here
// 32³–64³, shape-preserving — the 2PCP advantage appears above ~50K
// nonzeros, where HaTen2's shuffle volume starts to dominate).
func BenchmarkTable1(b *testing.B) {
	for _, side := range []int{32, 48, 64} {
		b.Run("2PCP/side="+itoa(side), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := denseUniform(rng, 0.2, side)
			b.ResetTimer()
			var fit float64
			for i := 0; i < b.N; i++ {
				res, err := twopcp.Decompose(x, twopcp.Options{
					Rank: 10, Partitions: []int{2},
					Schedule: twopcp.ZOrder, Replacement: twopcp.Forward,
					BufferFraction: 0.5, MaxIters: 10, Tol: 1e-3, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				fit = res.Fit
			}
			b.ReportMetric(fit, "fit")
		})
		b.Run("HaTen2/side="+itoa(side), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := tensor.FromDense(denseUniform(rng, 0.2, side))
			b.ResetTimer()
			var fit float64
			for i := 0; i < b.N; i++ {
				kt, _, err := haten2.Decompose(x, haten2.Options{
					Rank: 10, MaxIters: 1, Seed: 1,
					MR: mapreduce.Config{NumReducers: 4},
				})
				if err != nil {
					b.Fatal(err)
				}
				fit = kt.FitSparse(x)
			}
			b.ReportMetric(fit, "fit")
		})
	}
}

// BenchmarkFigure11 regenerates Figure 11: 2PCP execution time as a
// function of the number of nonzero elements (the scaling curve).
func BenchmarkFigure11(b *testing.B) {
	for _, side := range []int{12, 16, 20, 24} {
		rng := rand.New(rand.NewSource(2))
		x := denseUniform(rng, 0.2, side)
		b.Run("nnz="+itoa(x.NNZ()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := twopcp.Decompose(x, twopcp.Options{
					Rank: 10, Partitions: []int{2},
					Schedule: twopcp.ZOrder, Replacement: twopcp.Forward,
					BufferFraction: 0.5, MaxIters: 10, Tol: 1e-3, Seed: 2,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 regenerates Table II: naive out-of-core CP vs 2PCP with
// LRU and FOR replacement (Z-order schedule), including the simulated
// I/O latency that makes the workload disk-bound (paper footnote 5).
func BenchmarkTable2(b *testing.B) {
	b.Run("FullTable", func(b *testing.B) {
		var naive, lru, forw time.Duration
		for i := 0; i < b.N; i++ {
			res, err := experiments.RunTable2(experiments.Table2Config{
				Side: 16, Rank: 4, SwapLatency: 500 * time.Microsecond,
				NaiveIters: 3, MaxVirtualIters: 9, Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			naive = res.Naive
			lru = res.Rows[1].Phase2LRU
			forw = res.Rows[1].Phase2FOR
		}
		b.ReportMetric(naive.Seconds(), "naive-sec")
		b.ReportMetric(lru.Seconds(), "ph2-lru-sec")
		b.ReportMetric(forw.Seconds(), "ph2-for-sec")
	})
}

// BenchmarkFigure12 regenerates Figure 12: steady-state data swaps per
// virtual iteration for every schedule × policy. Reported metrics follow
// the paper's headline cells: MC+LRU (worst) and HO+FOR (best).
func BenchmarkFigure12(b *testing.B) {
	for _, frac := range []float64{1.0 / 3, 1.0 / 2, 2.0 / 3} {
		b.Run("buffer="+ftoa(frac), func(b *testing.B) {
			var worst, best float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFigure12(experiments.Figure12Config{
					Partitions:      []int{2, 4, 8},
					BufferFractions: []float64{frac},
					Seed:            4,
				})
				if err != nil {
					b.Fatal(err)
				}
				worst = res.Lookup(8, frac, schedule.ModeCentric, buffer.LRU).Swaps
				best = res.Lookup(8, frac, schedule.HilbertOrder, buffer.Forward).Swaps
			}
			b.ReportMetric(worst, "swaps/MC-LRU")
			b.ReportMetric(best, "swaps/HO-FOR")
		})
	}
}

// BenchmarkFigure13 regenerates Figure 13: the relative accuracy difference
// of block-centric schedules vs mode-centric on a sparse (Epinions-like)
// and the dense (Face-like) dataset.
func BenchmarkFigure13(b *testing.B) {
	var epinionsHO, faceHO float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure13(experiments.Figure13Config{
			Datasets:        []string{"Epinions", "Face"},
			Partitions:      []int{2},
			MaxVirtualIters: 30,
			Rank:            4,
			Runs:            1,
			FaceScale:       20,
			Seed:            5,
		})
		if err != nil {
			b.Fatal(err)
		}
		epinionsHO = res.Lookup("Epinions", 2, schedule.HilbertOrder).RelDiffPct
		faceHO = res.Lookup("Face", 2, schedule.HilbertOrder).RelDiffPct
	}
	b.ReportMetric(epinionsHO, "epinions-HO-%")
	b.ReportMetric(faceHO, "face-HO-%")
}

// BenchmarkAblationSchedules isolates the schedule choice (paper §VI): swaps
// per virtual iteration for each traversal under the same FOR policy.
func BenchmarkAblationSchedules(b *testing.B) {
	for _, kind := range schedule.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var swaps float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFigure12(experiments.Figure12Config{
					Partitions:      []int{8},
					BufferFractions: []float64{1.0 / 3},
					Seed:            6,
				})
				if err != nil {
					b.Fatal(err)
				}
				swaps = res.Lookup(8, 1.0/3, kind, buffer.Forward).Swaps
			}
			b.ReportMetric(swaps, "swaps/iter")
		})
	}
}

// BenchmarkAblationPolicies isolates the replacement policy (paper §VII)
// under the Hilbert schedule.
func BenchmarkAblationPolicies(b *testing.B) {
	for _, pol := range buffer.Policies {
		b.Run(pol.String(), func(b *testing.B) {
			var swaps float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFigure12(experiments.Figure12Config{
					Partitions:      []int{8},
					BufferFractions: []float64{1.0 / 3},
					Seed:            7,
				})
				if err != nil {
					b.Fatal(err)
				}
				swaps = res.Lookup(8, 1.0/3, schedule.HilbertOrder, pol).Swaps
			}
			b.ReportMetric(swaps, "swaps/iter")
		})
	}
}

// BenchmarkPhase0Sketch is the speed half of the Phase-0 acceptance
// criterion, baselined in BENCH_phase0_sketch.json and gated by
// cmd/benchgate. lowmlrank runs the frozen compress-then-refine comparison
// (experiments.RunAccel: a 48³ multilinear-rank-4 cube with a
// superdiagonal core, decomposed at rank 8 to effective convergence) and
// reports the warm start's Phase-1 speedup — (phase0+phase1) accelerated
// vs brute-force phase1 — which must stay ≥ 3×, and the |fit| difference
// between the converged arms, which must stay ≤ 1e-3. What requesting an
// accelerator costs where Phase 0 cannot help is pinned by
// TestTuckerStructuralFallbackIsANoOp: nothing, not a block read.
func BenchmarkPhase0Sketch(b *testing.B) {
	b.Run("lowmlrank", func(b *testing.B) {
		var speedup, delta float64
		for i := 0; i < b.N; i++ {
			res, err := experiments.RunAccel(experiments.AccelConfig{
				Side: 48, Parts: 2, MLRank: 4, Rank: 8,
				Noise: 1e-5, Diag: true, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Accelerated {
				b.Fatal("Phase 0 fell back on the low-multilinear-rank benchmark input")
			}
			// Best-of across iterations: the fit delta is deterministic,
			// the speedup is a wall-clock ratio that only ever loses to
			// scheduling noise.
			if res.Phase1Speedup > speedup {
				speedup = res.Phase1Speedup
			}
			delta = math.Abs(res.AccelFit - res.BruteFit)
		}
		b.ReportMetric(speedup, "speedup-x")
		b.ReportMetric(delta, "fit-delta")
	})
}

// BenchmarkAblationCurveConstruction measures schedule-construction cost as
// the mode count grows (paper §VI-C.2: practical Hilbert mappings for
// high-mode tensors are hard; Skilling's transform keeps ours O(N) state,
// and Z-order interleaving stays cheapest).
func BenchmarkAblationCurveConstruction(b *testing.B) {
	for _, nModes := range []int{3, 6, 10} {
		dims := make([]int, nModes)
		ks := make([]int, nModes)
		for i := range dims {
			dims[i] = 4
			ks[i] = 2
		}
		p, err := grid.New(dims, ks)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []schedule.Kind{schedule.ZOrder, schedule.HilbertOrder} {
			b.Run(kind.String()+"/modes="+itoa(nModes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := schedule.New(kind, p)
					if len(s.Steps) != 1<<uint(nModes) {
						b.Fatalf("steps = %d", len(s.Steps))
					}
				}
			})
		}
	}
}

func denseUniform(rng *rand.Rand, density float64, side int) *twopcp.Dense {
	x := twopcp.NewDense(side, side, side)
	for i := range x.Data {
		if rng.Float64() < density {
			x.Data[i] = rng.Float64() + 1e-9
		}
	}
	return x
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	switch {
	case f < 0.4:
		return "1of3"
	case f < 0.6:
		return "1of2"
	default:
		return "2of3"
	}
}
