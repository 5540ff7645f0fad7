package tensor

import (
	"math/rand"
	"testing"

	"twopcp/internal/mat"
	"twopcp/internal/par"
)

func randomFactors(rng *rand.Rand, dims []int, f int) []*mat.Matrix {
	factors := make([]*mat.Matrix, len(dims))
	for k := range factors {
		factors[k] = mat.Random(dims[k], f, rng)
	}
	return factors
}

// TestSweepMatchesOracleBitForBit is the differential test of the shared
// contraction: on randomised 3-, 4- and 5-way shapes with odd dims (a
// size-1 mode in every position, I_0 shortest and longest, ranks on both
// sides of I_0, which decides between keeping a contraction and
// streaming), a Sweep reused across all of them must reproduce sweepWant
// bit for bit for every mode and the same bits at every worker count, and
// MTTKRPInto must agree with unfold × Khatri-Rao. The S pass builds rows
// four fibers to a kernel batch in groups of productGroupFibers and the
// other contractions four fibers to an OuterAdd pass, so the ranks cover
// every mix of the kernels' eight- and four-column blocks and leftover
// columns, and the first two shapes have fiber counts (195, 133) that fill
// neither the last group nor the last batch.
func TestSweepMatchesOracleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := [][]int{
		{33, 15, 13}, // large enough to dispatch in parallel at F ≥ 8
		{24, 7, 19},
		{13, 15, 33}, // I_0 shortest: contractions on modes 1 and 2
		{9, 21, 12, 10},
		{1, 9, 7},
		{5, 1, 11},
		{7, 5, 1},
	}
	for trial := 0; trial < 6; trial++ {
		dims := make([]int, 4+trial%2)
		for k := range dims {
			dims[k] = 2*rng.Intn(4) + 3 // odd, 3..9
		}
		shapes = append(shapes, dims)
	}
	var sw Sweep // one sweep for every shape and rank, as Phase 1 reuses it
	for _, dims := range shapes {
		x := RandomDense(rng, dims...)
		for _, f := range []int{1, 3, 4, 8, 12, 16, 17, 20} {
			factors := randomFactors(rng, dims, f)
			for n := range dims {
				want := mat.New(dims[n], f)
				MTTKRPInto(want, x, factors, n)
				oracle := mat.Mul(x.Unfold(n), KhatriRaoSkip(factors, n))
				if !want.EqualApprox(oracle, 1e-9) {
					t.Fatalf("dims %v f %d mode %d: MTTKRPInto diverges from unfold×KR", dims, f, n)
				}
			}
			// Two rounds in ALS order, then the modes backwards: the
			// contractions are made on the previous mode and reused.
			order := make([]int, 0, 3*len(dims))
			for n := range dims {
				order = append(order, n)
			}
			order = append(order, order...)
			for n := len(dims) - 1; n >= 0; n-- {
				order = append(order, n)
			}
			var serial []*mat.Matrix
			for _, w := range workerCounts {
				func() {
					defer par.PopWorkers(par.PushWorkers(w))
					sw.Bind(x)
					for i, n := range order {
						got := mat.New(dims[n], f)
						got.Fill(42) // must be fully overwritten
						sw.Into(got, factors, n)
						if w == 1 {
							if !sameMatrixBits(got, sweepWant(&sw, x, factors, n)) {
								t.Fatalf("dims %v f %d step %d mode %d: Sweep differs from its oracle (contraction on %d)", dims, f, i, n, sw.m)
							}
							serial = append(serial, got)
						} else if !sameMatrixBits(got, serial[i]) {
							t.Fatalf("dims %v f %d step %d mode %d workers %d: Sweep differs from the serial sweep", dims, f, i, n, w)
						}
					}
				}()
			}
		}
	}
}

// TestSweepSeesRewrittenFactor0 is the stale-cache regression: factor 0 is
// rewritten after a mode-0 MTTKRP, as every ALS mode-0 update does, and
// modes 1..N-1 must then be computed from the new values — from a
// contraction on mode 0 made after the rewrite, or from one on a later
// mode whose folds weigh by the new factor 0 — and match sweepWant.
func TestSweepSeesRewrittenFactor0(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, dims := range [][]int{{9, 7, 5}, {9, 4, 3, 5}, {5, 7, 9}, {3, 4, 5, 6}} {
		const f = 3
		x := RandomDense(rng, dims...)
		factors := randomFactors(rng, dims, f)
		var sw Sweep
		sw.Bind(x)
		check := func(when string) {
			t.Helper()
			for n := 1; n < len(dims); n++ {
				got := mat.New(dims[n], f)
				sw.Into(got, factors, n)
				if !sameMatrixBits(got, sweepWant(&sw, x, factors, n)) {
					t.Fatalf("dims %v mode %d %s: Sweep differs from its oracle (contraction on %d)", dims, n, when, sw.m)
				}
			}
		}
		check("before the rewrite")
		sw.Into(mat.New(dims[0], f), factors, 0)
		for i := range factors[0].Data {
			factors[0].Data[i] = rng.NormFloat64()
		}
		check("after the rewrite")
	}
}

// TestSweepPassCount counts the tensor passes of 20 ALS sweeps, each mode's
// factor rewritten after its MTTKRP: a contraction on the mode just
// rewritten serves the next N−1 modes when that mode is at least as long
// as mode 0, so a 3-way cube takes 1.5 passes a sweep and a 4-way cube
// 4/3; with I_0 the longest mode every sweep takes today's two, the mode-0
// pass and the S pass. A re-Bind drops the contraction.
func TestSweepPassCount(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, tc := range []struct {
		dims []int
		want int
	}{
		{[]int{8, 8, 8}, 30},
		{[]int{5, 5, 5, 5}, 27},
		{[]int{12, 10, 8}, 40},
	} {
		const f = 4
		x := RandomDense(rng, tc.dims...)
		factors := randomFactors(rng, tc.dims, f)
		var sw Sweep
		sw.Bind(x)
		for sweep := 0; sweep < 20; sweep++ {
			for n, d := range tc.dims {
				sw.Into(mat.New(d, f), factors, n)
				for i := range factors[n].Data {
					factors[n].Data[i] = rng.NormFloat64()
				}
			}
		}
		if sw.passes != tc.want {
			t.Errorf("dims %v: %d passes over 20 sweeps, want %d", tc.dims, sw.passes, tc.want)
		}
	}

	dims := []int{8, 8, 8}
	x := RandomDense(rng, dims...)
	factors := randomFactors(rng, dims, 4)
	var sw Sweep
	sw.Bind(x)
	sw.Into(mat.New(8, 4), factors, 0) // contracts on mode 2
	sw.Into(mat.New(8, 4), factors, 1) // folds from it
	if sw.passes != 1 {
		t.Fatalf("%d passes for modes 0 and 1, want 1", sw.passes)
	}
	sw.Bind(x)
	sw.Into(mat.New(8, 4), factors, 1)
	if sw.passes != 2 {
		t.Fatalf("%d passes after a re-Bind, want 2: the contraction was kept", sw.passes)
	}
}

// TestSweepRebindDropsProducts: a second tensor of the same shape bound to
// the same sweep must not be answered from the first one's products.
func TestSweepRebindDropsProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	dims := []int{8, 6, 5}
	factors := randomFactors(rng, dims, 3)
	var sw Sweep
	for i := 0; i < 2; i++ {
		x := RandomDense(rng, dims...)
		sw.Bind(x)
		got, want := mat.New(dims[2], 3), mat.New(dims[2], 3)
		sw.Into(got, factors, 2)
		MTTKRPInto(want, x, factors, 2)
		if !got.Equal(want) {
			t.Fatalf("tensor %d: Sweep answered from stale products", i)
		}
	}
}
