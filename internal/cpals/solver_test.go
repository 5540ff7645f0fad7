package cpals

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// TestLeastSquaresSolverBitExact pins the tentpole's compatibility
// contract at the seam itself: routing the update through the Solver
// interface produces bit-for-bit the bytes of the historical direct
// RightSolveSPD call, and an explicit LeastSquares{} in Options is
// bit-identical to leaving Solver nil.
func TestLeastSquaresSolverBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rows, f := 2+rng.Intn(10), 1+rng.Intn(5)
		m := mat.Random(rows, f, rng)
		base := mat.Random(rows+f, f, rng)
		v := mat.Gram(base)
		want := mat.RightSolveSPD(m, v)
		got := mat.New(rows, f)
		LeastSquares{}.Solve(got, m, v, &SolverScratch{})
		if !got.Equal(want) {
			t.Fatalf("trial %d: Solver path differs from direct RightSolveSPD", trial)
		}
	}

	x := tensor.RandomDense(rand.New(rand.NewSource(7)), 9, 8, 7)
	opts := Options{Rank: 3, MaxIters: 5, Tol: 1e-12, Rng: rand.New(rand.NewSource(1))}
	ktNil, infoNil, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Rng = rand.New(rand.NewSource(1))
	opts.Solver = LeastSquares{}
	ktLS, infoLS, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if infoNil.Fit != infoLS.Fit || infoNil.Iters != infoLS.Iters {
		t.Fatalf("explicit LeastSquares diverges: fit %v vs %v", infoLS.Fit, infoNil.Fit)
	}
	for m := range ktNil.Factors {
		if !ktNil.Factors[m].Equal(ktLS.Factors[m]) {
			t.Fatalf("explicit LeastSquares: factor %d differs", m)
		}
	}
}

// TestRidgeSolverMatchesAugmentedSystem checks Ridge against its
// definition: A·(V+λI) = M, verified by multiplying back.
func TestRidgeSolverMatchesAugmentedSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, lambda := range []float64{1e-6, 1e-2, 1, 50} {
		rows, f := 7, 4
		m := mat.Random(rows, f, rng)
		// Rank-deficient V (Gram of a matrix with fewer rows than columns)
		// would sink plain least squares into the pseudo-inverse; ridge must
		// still solve it exactly.
		v := mat.Gram(mat.Random(f-2, f, rng))
		a := mat.New(rows, f)
		Ridge{Lambda: lambda}.Solve(a, m, v, &SolverScratch{})
		damped := v.Clone()
		for i := 0; i < f; i++ {
			damped.Set(i, i, damped.At(i, i)+lambda)
		}
		back := mat.Mul(a, damped)
		if !back.EqualApprox(m, 1e-9*(1+m.MaxAbs())) {
			t.Fatalf("lambda=%g: A(V+λI) != M", lambda)
		}
	}
}

// TestNonnegativeSolverProperties: the HALS update is nonnegative from any
// warm start, deterministic, and never increases the quadratic objective
// ‖X_(n) − A·KR‖² it minimizes (evaluated via its Gram form
// tr(AVAᵀ) − 2tr(AMᵀ) + const).
func TestNonnegativeSolverProperties(t *testing.T) {
	obj := func(a, m, v *mat.Matrix) float64 {
		av := mat.Mul(a, v)
		var s float64
		for i := range a.Data {
			s += a.Data[i]*av.Data[i] - 2*a.Data[i]*m.Data[i]
		}
		return s
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rows, f := 2+rng.Intn(9), 1+rng.Intn(5)
		m := mat.Random(rows, f, rng)
		v := mat.Gram(mat.Random(rows+f, f, rng))
		warm := mat.Random(rows, f, rng)
		for i := range warm.Data {
			warm.Data[i] -= 0.5 // mixed-sign warm start: the projection must clean it
		}
		a := warm.Clone()
		Nonnegative{}.Solve(a, m, v, &SolverScratch{})
		for i, x := range a.Data {
			if x < 0 {
				t.Fatalf("trial %d: negative output %g at %d", trial, x, i)
			}
		}
		// Monotone vs the projected warm start (HALS's actual iterate).
		proj := warm.Clone()
		for i, x := range proj.Data {
			if x < 0 {
				proj.Data[i] = 0
			}
		}
		before, after := obj(proj, m, v), obj(a, m, v)
		if after > before+1e-12*(1+math.Abs(before)) {
			t.Fatalf("trial %d: objective rose %g -> %g", trial, before, after)
		}
		b := warm.Clone()
		Nonnegative{}.Solve(b, m, v, &SolverScratch{})
		if !a.Equal(b) {
			t.Fatalf("trial %d: HALS is not deterministic", trial)
		}
		// More passes keep improving (or hold) the objective.
		c := warm.Clone()
		for pass := 0; pass < 5; pass++ {
			Nonnegative{}.Solve(c, m, v, &SolverScratch{})
		}
		if obj(c, m, v) > after+1e-12*(1+math.Abs(after)) {
			t.Fatalf("trial %d: extra HALS passes worsened the objective", trial)
		}
	}
}

// TestNonnegativeSolverDeadComponent: a zero Gram diagonal (dead
// component) pins the column to zero instead of dividing by zero.
func TestNonnegativeSolverDeadComponent(t *testing.T) {
	m := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	v := mat.FromRows([][]float64{{1, 0}, {0, 0}})
	a := mat.FromRows([][]float64{{5, 5}, {5, 5}})
	Nonnegative{}.Solve(a, m, v, &SolverScratch{})
	for i := 0; i < 2; i++ {
		if got := a.At(i, 1); got != 0 {
			t.Fatalf("dead column entry %d is %g, want 0", i, got)
		}
		if got := a.At(i, 0); math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("live column entry %d is %g", i, got)
		}
	}
}

// TestNewSolverParsing covers the shared constraint-name mapping.
func TestNewSolverParsing(t *testing.T) {
	for _, name := range []string{"", "none", "ls"} {
		s, err := NewSolver(name, 0)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if _, ok := s.(LeastSquares); !ok {
			t.Fatalf("%q: got %T", name, s)
		}
	}
	s, err := NewSolver("ridge", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := s.(Ridge); !ok || r.Lambda != 0.5 {
		t.Fatalf("ridge: got %#v", s)
	}
	if s, err = NewSolver("nonneg", 0); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(Nonnegative); !ok {
		t.Fatalf("nonneg: got %T", s)
	}
	for _, bad := range []struct {
		name   string
		lambda float64
	}{
		{"ridge", 0}, {"ridge", -1}, {"ridge", math.Inf(1)}, {"ridge", math.NaN()},
		{"nonneg", 0.1}, {"", 0.1}, {"frobnicate", 0},
	} {
		if _, err := NewSolver(bad.name, bad.lambda); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("NewSolver(%q, %g): got %v, want ErrBadOptions", bad.name, bad.lambda, err)
		}
	}
	// The same validation fires through Options.
	x := tensor.RandomDense(rand.New(rand.NewSource(1)), 4, 4, 4)
	_, _, err = Decompose(x, Options{Rank: 2, Rng: rand.New(rand.NewSource(1)), Solver: Ridge{}})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Ridge{Lambda:0} through Options: got %v", err)
	}
}

// TestFitMatchesDirectNorm is the fit-reporting regression: the fit each
// sweep reports from the post-normalization Gram cache must agree with the
// fit recomputed from scratch against the returned model (direct tensor
// norm, fresh MTTKRP) to 1e-9 — for every solver. A stale (pre-normalize)
// cache or an off-by-one-sweep trace entry would push the disagreement to
// ~1e-2 on these sizes.
func TestFitMatchesDirectNorm(t *testing.T) {
	solvers := map[string]Solver{
		"ls":     nil,
		"ridge":  Ridge{Lambda: 1e-3},
		"nonneg": Nonnegative{},
	}
	for name, solver := range solvers {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				x := tensor.RandomDense(rng, 9, 8, 7)
				kt, info, err := Decompose(x, Options{
					Rank: 3, MaxIters: 6, Tol: 1e-12, Rng: rng, Solver: solver,
				})
				if err != nil {
					t.Fatal(err)
				}
				direct := kt.Fit(x)
				if math.Abs(direct-info.Fit) > 1e-9 {
					t.Fatalf("seed %d: reported fit %.17g, direct fit %.17g", seed, info.Fit, direct)
				}
				if len(info.FitTrace) == 0 || info.FitTrace[len(info.FitTrace)-1] != info.Fit {
					t.Fatalf("seed %d: Fit %v is not the last trace entry %v", seed, info.Fit, info.FitTrace)
				}
			}
		})
	}
}
