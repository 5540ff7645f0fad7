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

// TestSweepMatchesStandaloneBitForBit is the differential test of the
// shared fiber products: on randomised 3-, 4- and 5-way shapes with odd
// dims (a size-1 mode in every position, ranks on both sides of I_0, which
// decides between storing S and streaming), a Sweep reused across all of
// them must reproduce MTTKRPInto bit for bit for every mode, at every
// worker count, and both must agree with unfold × Khatri-Rao. The sweep
// builds S four fibers to a kernel batch in groups of productGroupFibers
// and the standalone call one fiber at a time, so the ranks cover every
// mix of the kernels' eight- and four-column blocks and leftover columns,
// and the first two shapes have fiber counts (195, 133) that fill neither
// the last group nor the last batch.
func TestSweepMatchesStandaloneBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := [][]int{
		{33, 15, 13}, // large enough to dispatch in parallel at F ≥ 8
		{24, 7, 19},
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
			want := make([]*mat.Matrix, len(dims))
			for n := range dims {
				func() {
					defer par.PopWorkers(par.PushWorkers(1))
					want[n] = mat.New(dims[n], f)
					MTTKRPInto(want[n], x, factors, n)
				}()
				oracle := mat.Mul(x.Unfold(n), KhatriRaoSkip(factors, n))
				if !want[n].EqualApprox(oracle, 1e-9) {
					t.Fatalf("dims %v f %d mode %d: MTTKRPInto diverges from unfold×KR", dims, f, n)
				}
			}
			for _, w := range workerCounts {
				func() {
					defer par.PopWorkers(par.PushWorkers(w))
					sw.Bind(x)
					// Two rounds in ALS order, then the modes backwards:
					// the first round computes S, the rest reuse it.
					order := make([]int, 0, 3*len(dims))
					for n := range dims {
						order = append(order, n)
					}
					order = append(order, order...)
					for n := len(dims) - 1; n >= 0; n-- {
						order = append(order, n)
					}
					for _, n := range order {
						got := mat.New(dims[n], f)
						got.Fill(42) // must be fully overwritten
						sw.Into(got, factors, n)
						if !got.Equal(want[n]) {
							t.Fatalf("dims %v f %d mode %d workers %d: Sweep differs from MTTKRPInto", dims, f, n, w)
						}
					}
				}()
			}
		}
	}
}

// TestSweepSeesRewrittenFactor0 is the stale-cache regression: factor 0 is
// rewritten after a mode-0 MTTKRP, as every ALS mode-0 update does, and
// modes 1..N-1 must then be computed from the new values — Into(0) itself
// drops the products, so no caller can forget to.
func TestSweepSeesRewrittenFactor0(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, dims := range [][]int{{9, 7, 5}, {9, 4, 3, 5}} {
		const f = 4
		x := RandomDense(rng, dims...)
		factors := randomFactors(rng, dims, f)
		var sw Sweep
		sw.Bind(x)
		check := func(when string) {
			t.Helper()
			for n := 1; n < len(dims); n++ {
				got, want := mat.New(dims[n], f), mat.New(dims[n], f)
				sw.Into(got, factors, n)
				MTTKRPInto(want, x, factors, n)
				if !got.Equal(want) {
					t.Fatalf("dims %v mode %d %s: Sweep differs from MTTKRPInto", dims, n, when)
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
