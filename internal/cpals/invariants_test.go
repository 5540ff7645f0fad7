package cpals

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// Property-based invariant suite: every solver is run over 200+ randomized
// (shape, rank, seed) cases and each run is checked against the solver
// contract rather than against recorded values. The case streams are
// derived deterministically from the case index, so a failure report like
// "case 137" reproduces exactly.

// invariantCase is one randomized decomposition configuration.
type invariantCase struct {
	dims  []int
	rank  int
	seed  int64
	iters int
}

// invariantCases derives n randomized small-tensor cases from a base seed:
// 2–4 modes, mode sizes 2–7, rank 1–4, 2–6 sweeps. Small sizes keep the
// naive O(cells·rank) oracle below a microsecond per case.
func invariantCases(base int64, n int) []invariantCase {
	rng := rand.New(rand.NewSource(base))
	out := make([]invariantCase, n)
	for i := range out {
		modes := 2 + rng.Intn(3)
		dims := make([]int, modes)
		for m := range dims {
			dims[m] = 2 + rng.Intn(6)
		}
		out[i] = invariantCase{
			dims:  dims,
			rank:  1 + rng.Intn(4),
			seed:  rng.Int63(),
			iters: 2 + rng.Intn(5),
		}
	}
	return out
}

// naiveErr2 is the reference oracle: the squared reconstruction error
// ‖X−X̂‖² and ‖X‖², evaluated cell by cell with KTensor.At —
// O(cells·rank), no Gram identities, no caches.
func naiveErr2(x *tensor.Dense, kt *KTensor) (err2, norm2 float64) {
	idx := make([]int, len(x.Dims))
	for flat := range x.Data {
		rem := flat
		for m, d := range x.Dims {
			idx[m] = rem % d
			rem /= d
		}
		v := x.Data[flat]
		d := v - kt.At(idx...)
		err2 += d * d
		norm2 += v * v
	}
	return err2, norm2
}

// checkInvariants applies the shared solver-contract assertions to one run.
func checkInvariants(t *testing.T, kt *KTensor, info Info, x *tensor.Dense, traceTol float64) {
	t.Helper()
	if len(info.FitTrace) != info.Iters {
		t.Fatalf("trace has %d entries for %d sweeps", len(info.FitTrace), info.Iters)
	}
	for i, f := range info.FitTrace {
		if math.IsNaN(f) || f < -1e-9 || f > 1+1e-9 {
			t.Fatalf("trace[%d] = %v outside [0,1]", i, f)
		}
		// Saturated traces are exempt: once the model is exact to float
		// rounding the Gram-identity fit jitters within √ε of 1 (clamped
		// res² one sweep, cancellation noise the next), so ordering two
		// such entries is meaningless.
		saturated := i > 0 && f > 1-1e-6 && info.FitTrace[i-1] > 1-1e-6
		if i > 0 && !saturated && f < info.FitTrace[i-1]-traceTol {
			t.Fatalf("trace decreases at %d: %v -> %v", i, info.FitTrace[i-1], f)
		}
	}
	for f, l := range kt.Lambda {
		if !(l >= 0) {
			t.Fatalf("lambda[%d] = %v", f, l)
		}
	}
	// Oracle agreement, stated on the squared reconstruction error: the
	// reported fit implies ‖X−X̂‖² = ((1−fit)·‖X‖)², which must match the
	// cell-by-cell oracle within 1e-9 relative to ‖X‖². (The fit itself
	// cannot carry a 1e-9 bound near fit=1 — the Gram-identity formula
	// cancels catastrophically there, a √ε≈1e-8 floor shared with the
	// reference Tensor Toolbox implementation; TestFitMatchesDirectNorm
	// pins the 1e-9 fit-level agreement away from that regime.)
	err2, norm2 := naiveErr2(x, kt)
	res := (1 - info.Fit) * math.Sqrt(norm2)
	if math.Abs(res*res-err2) > 1e-9*(1+norm2) {
		t.Fatalf("reported fit %.17g implies err2 %.17g, naive oracle err2 %.17g (norm2 %g)",
			info.Fit, res*res, err2, norm2)
	}
}

// TestInvariantsLeastSquares: 200 randomized cases of the default solver.
// Plain ALS minimizes the residual exactly per mode, so the fit trace is
// monotone to float rounding.
func TestInvariantsLeastSquares(t *testing.T) {
	for i, tc := range invariantCases(100, 200) {
		rng := rand.New(rand.NewSource(tc.seed))
		x := tensor.RandomDense(rng, tc.dims...)
		kt, info, err := Decompose(x, Options{Rank: tc.rank, MaxIters: tc.iters, Tol: 1e-15, Rng: rng})
		if err != nil {
			t.Fatalf("case %d (%+v): %v", i, tc, err)
		}
		checkInvariants(t, kt, info, x, 1e-7)
	}
}

// TestInvariantsRidge: 200 randomized cases with a randomized damping
// weight. Ridge optimizes the *regularized* objective, so the plain fit
// trace is only monotone up to the λ-sized trade-off; λ is kept ≤ 0.05 and
// the tolerance scaled accordingly.
func TestInvariantsRidge(t *testing.T) {
	lrng := rand.New(rand.NewSource(101))
	for i, tc := range invariantCases(200, 200) {
		lambda := 1e-6 + 0.05*lrng.Float64()
		rng := rand.New(rand.NewSource(tc.seed))
		x := tensor.RandomDense(rng, tc.dims...)
		kt, info, err := Decompose(x, Options{
			Rank: tc.rank, MaxIters: tc.iters, Tol: 1e-15, Rng: rng, Solver: Ridge{Lambda: lambda},
		})
		if err != nil {
			t.Fatalf("case %d (%+v, lambda=%g): %v", i, tc, lambda, err)
		}
		checkInvariants(t, kt, info, x, lambda+1e-7)
	}
}

// TestInvariantsNonnegative: 200 randomized cases; on top of the shared
// invariants every factor entry must be ≥ 0 after every run.
func TestInvariantsNonnegative(t *testing.T) {
	for i, tc := range invariantCases(300, 200) {
		rng := rand.New(rand.NewSource(tc.seed))
		x := tensor.RandomDense(rng, tc.dims...) // uniform [0,1): nonnegative data
		kt, info, err := Decompose(x, Options{
			Rank: tc.rank, MaxIters: tc.iters, Tol: 1e-15, Rng: rng, Solver: Nonnegative{},
		})
		if err != nil {
			t.Fatalf("case %d (%+v): %v", i, tc, err)
		}
		checkInvariants(t, kt, info, x, 1e-7)
		for m, a := range kt.Factors {
			for j, v := range a.Data {
				if v < 0 {
					t.Fatalf("case %d: factor %d entry %d is %g", i, m, j, v)
				}
			}
		}
	}
}

// TestInvariantRidgeConditioning: the damped system V+λI that Ridge solves
// has every eigenvalue lifted by λ, so its condition number is bounded by
// (λ_max(V)+λ)/λ and it is always Cholesky-factorizable — even when V is
// exactly singular (Gram of rank-deficient factors). 200 randomized Gram
// products, including deliberately rank-deficient ones.
func TestInvariantRidgeConditioning(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	for i := 0; i < 200; i++ {
		f := 2 + rng.Intn(5)
		modes := 2 + rng.Intn(3)
		lambda := math.Pow(10, -6+6*rng.Float64())
		v := mat.New(f, f)
		v.Fill(1)
		for m := 0; m < modes; m++ {
			rows := 1 + rng.Intn(f+3) // rows < f ⇒ singular Gram
			v.HadamardInPlace(mat.Gram(mat.Random(rows, f, rng)))
		}
		damped := v.Clone()
		for j := 0; j < f; j++ {
			damped.Set(j, j, damped.At(j, j)+lambda)
		}
		vals, _ := mat.SymEig(damped)
		minEig, maxEig := math.Inf(1), math.Inf(-1)
		for _, e := range vals {
			minEig = math.Min(minEig, e)
			maxEig = math.Max(maxEig, e)
		}
		if minEig < lambda*(1-1e-8)-1e-12 {
			t.Fatalf("case %d: min eigenvalue %g below lambda %g", i, minEig, lambda)
		}
		baseVals, _ := mat.SymEig(v)
		baseMax := 0.0
		for _, e := range baseVals {
			baseMax = math.Max(baseMax, e)
		}
		bound := (baseMax + lambda) / lambda
		if cond := maxEig / minEig; cond > bound*(1+1e-6) {
			t.Fatalf("case %d: cond %g exceeds bound %g (lambda=%g)", i, cond, bound, lambda)
		}
		if _, err := mat.Cholesky(damped); err != nil {
			t.Fatalf("case %d: damped system not Cholesky-factorizable: %v", i, err)
		}
	}
}

// TestInvariantsSparseMirrorsDense spot-checks that the solver invariants
// carry over to the sparse kernel path: for a sample of cases per solver,
// DecomposeSparse over FromDense(x) satisfies the same contract.
func TestInvariantsSparseMirrorsDense(t *testing.T) {
	solvers := []struct {
		name   string
		solver Solver
		tol    float64
	}{
		{"ls", nil, 1e-7},
		{"ridge", Ridge{Lambda: 0.01}, 0.01},
		{"nonneg", Nonnegative{}, 1e-7},
	}
	for _, sv := range solvers {
		for i, tc := range invariantCases(500, 25) {
			rng := rand.New(rand.NewSource(tc.seed))
			x := tensor.RandomDense(rng, tc.dims...)
			kt, info, err := DecomposeSparse(tensor.FromDense(x), Options{
				Rank: tc.rank, MaxIters: tc.iters, Tol: 1e-15, Rng: rng, Solver: sv.solver,
			})
			if err != nil {
				t.Fatalf("%s case %d: %v", sv.name, i, err)
			}
			checkInvariants(t, kt, info, x, sv.tol)
			if _, ok := sv.solver.(Nonnegative); ok {
				for m, a := range kt.Factors {
					if min := matMin(a); min < 0 {
						t.Fatalf("%s case %d: factor %d min %g", sv.name, i, m, min)
					}
				}
			}
		}
	}
}

func matMin(m *mat.Matrix) float64 {
	min := math.Inf(1)
	for _, v := range m.Data {
		min = math.Min(min, v)
	}
	return min
}

// sanity: the case generator itself is deterministic (a changed stream
// would silently re-roll every property above).
func TestInvariantCasesDeterministic(t *testing.T) {
	a := fmt.Sprint(invariantCases(100, 5))
	b := fmt.Sprint(invariantCases(100, 5))
	if a != b {
		t.Fatalf("case stream not deterministic:\n%s\n%s", a, b)
	}
}
