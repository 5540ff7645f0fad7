package cpals

import (
	"fmt"
	"math"

	"twopcp/internal/mat"
)

// Solver is the pluggable row-block update at the heart of every ALS
// sweep (and of Phase 2's partition updates, which share the same normal
// equations). Given the MTTKRP result M (rows×F) and the Hadamard-of-Grams
// system matrix V (F×F, symmetric positive semi-definite), a Solver
// overwrites A (rows×F) with its update for
//
//	min_A ‖X_(n) − A·KR‖²  (+ the solver's own regularizer/constraint),
//
// whose unconstrained normal equations are A·V = M.
//
// Contract (relied on by phase1, refine and the runstate fingerprint):
//
//   - Solve must be deterministic: the same (a, m, v) bytes produce the
//     same output bytes on every call, at every par worker count. All
//     solvers here run on one goroutine over F×F/rows×F data — the
//     expensive kernels (MTTKRP, Gram) run before the solve — in one fixed
//     order of operations: the Cholesky sweeps of mat.RightSolveSPDInto
//     are mat.OuterAdd rank-one updates whose every element is one
//     front-to-back chain, the same bits on the AVX2 and the Go kernels.
//     So this holds by construction.
//   - Solve must not retain or alias its arguments past the call, and may
//     use sc for scratch (never shared between concurrent calls).
//   - When WarmStart reports true, Solve reads a's initial contents as the
//     starting iterate (and must still produce a valid update when that
//     content is arbitrary); otherwise a is write-only.
//   - The output must be safe to column-normalize: cpals folds column
//     norms into λ after every update, and constrained solvers must keep
//     their invariant (e.g. nonnegativity) under positive column scaling.
type Solver interface {
	// Name is the solver's stable identity, recorded (via the twopcp
	// layer) in checkpoint option fingerprints: "ls", "ridge", "nonneg".
	Name() string
	// WarmStart reports whether Solve reads a's initial contents.
	WarmStart() bool
	// Solve overwrites a with the update for a·V = M under the solver's
	// constraint. a must be rows×F and must not alias m or v.
	Solve(a, m, v *mat.Matrix, sc *SolverScratch)
}

// SolverScratch holds the reusable buffers of the solvers. The zero value
// is ready to use; buffers grow on demand and are reused across solves of
// any shape. cpals.Workspace embeds one so ALS sweeps stay allocation-free.
type SolverScratch struct {
	// SPD backs the Cholesky solves of LeastSquares and Ridge.
	SPD mat.SPDScratch
	// damp is Ridge's damped system matrix V + λI (F×F).
	damp *mat.Matrix
}

func (sc *SolverScratch) dampBuf(n int) *mat.Matrix {
	if sc.damp == nil || sc.damp.Rows != n {
		sc.damp = mat.New(n, n)
	}
	return sc.damp
}

// LeastSquares is the default unconstrained solver: A = M·V⁻¹ via a
// Cholesky solve with a symmetric pseudo-inverse fallback on singular V.
// It is bit-for-bit the historical cpals behavior.
type LeastSquares struct{}

// Name implements Solver.
func (LeastSquares) Name() string { return "ls" }

// WarmStart implements Solver: the unconstrained solve is closed-form.
func (LeastSquares) WarmStart() bool { return false }

// Solve implements Solver.
func (LeastSquares) Solve(a, m, v *mat.Matrix, sc *SolverScratch) {
	mat.RightSolveSPDInto(a, m, v, &sc.SPD)
}

// Ridge is Tikhonov-damped least squares: A = M·(V + λI)⁻¹, the minimizer
// of ‖X_(n) − A·KR‖² + λ‖A‖². The damping lifts every eigenvalue of the
// Gram system by λ, so the solve stays on the Cholesky fast path (and its
// conditioning stays bounded by (λ_max(V)+λ)/λ) even when collinear factor
// columns make V numerically singular.
type Ridge struct {
	// Lambda is the damping weight λ; it must be positive and finite.
	Lambda float64
}

// Name implements Solver.
func (Ridge) Name() string { return "ridge" }

// WarmStart implements Solver: the damped solve is closed-form.
func (Ridge) WarmStart() bool { return false }

// Solve implements Solver.
func (s Ridge) Solve(a, m, v *mat.Matrix, sc *SolverScratch) {
	d := sc.dampBuf(v.Rows)
	d.CopyFrom(v)
	for i := 0; i < d.Rows; i++ {
		d.Data[i*d.Cols+i] += s.Lambda
	}
	mat.RightSolveSPDInto(a, m, d, &sc.SPD)
}

func (s Ridge) validate() error {
	if !(s.Lambda > 0) || math.IsInf(s.Lambda, 1) {
		return fmt.Errorf("%w: ridge lambda %g (want finite > 0)", ErrBadOptions, s.Lambda)
	}
	return nil
}

// Nonnegative solves the row-block update under A ≥ 0 element-wise with
// HALS (hierarchical alternating least squares, Cichocki & Phan): each
// component column is updated in turn by its exact nonnegative
// one-dimensional minimizer over the cached Gram system,
//
//	A[:,f] ← max(0, A[:,f] + (M − A·V)[:,f] / V[f,f]),
//
// warm-started from the current factor: one pass per update, the textbook
// HALS-per-ALS-sweep step. The update touches only rows×F² flops against
// the F×F Gram — the same kernel structure as the unconstrained solve
// (Ballard et al., "Parallel Nonnegative CP Decomposition of Dense
// Tensors"), so MTTKRP still dominates and the constrained sweep stays
// within a small factor of the unconstrained one.
type Nonnegative struct{}

// Name implements Solver.
func (Nonnegative) Name() string { return "nonneg" }

// WarmStart implements Solver: HALS iterates from the current factor.
func (Nonnegative) WarmStart() bool { return true }

// Solve implements Solver. The warm start is first projected onto the
// nonnegative cone, so the output is element-wise nonnegative whatever the
// initial content of a; every operation is serial and in fixed order, so
// the update is deterministic.
func (Nonnegative) Solve(a, m, v *mat.Matrix, sc *SolverScratch) {
	for i, x := range a.Data {
		if !(x > 0) {
			a.Data[i] = 0
		}
	}
	f := v.Rows
	for c := 0; c < f; c++ {
		// V is symmetric, so column c is row c (contiguous).
		vcol := v.Row(c)
		vcc := vcol[c]
		if !(vcc > 0) {
			// A dead component (zero column somewhere in the KR
			// product) makes the objective flat in this column; pin it
			// to zero deterministically, matching the λ-folding rule
			// that reports dead columns with weight 1 and zero factors.
			for i := 0; i < a.Rows; i++ {
				a.Row(i)[c] = 0
			}
			continue
		}
		for i := 0; i < a.Rows; i++ {
			row := a.Row(i)
			g := m.At(i, c)
			for k, vk := range vcol {
				g -= row[k] * vk
			}
			x := row[c] + g/vcc
			if !(x > 0) {
				x = 0
			}
			row[c] = x
		}
	}
}

// ValidateSolver checks a solver's parameters; nil is valid and selects
// LeastSquares. cpals options normalization and the refine engine both
// call it, so an invalid Ridge weight is rejected at configuration time in
// either phase rather than surfacing as a numerically broken solve.
func ValidateSolver(s Solver) error {
	switch sv := s.(type) {
	case nil, LeastSquares, Nonnegative:
		return nil
	case Ridge:
		return sv.validate()
	default:
		return nil // user-supplied solvers manage their own invariants
	}
}

// FingerprintName returns the canonical constraint name recorded in
// checkpoint manifests for s: "" for the least-squares default (so
// manifests written before solvers existed keep matching), otherwise the
// solver's Name. Every layer that writes a runstate.Meta fingerprint must
// go through this one mapping — two independent spellings of the same
// solver would make checkpoints written by one layer unresumable by
// another.
func FingerprintName(s Solver) string {
	if s == nil {
		return ""
	}
	if _, ok := s.(LeastSquares); ok {
		return ""
	}
	return s.Name()
}

// NewSolver maps a constraint name to its solver: "" , "none" or "ls" →
// LeastSquares, "ridge" → Ridge{lambda}, "nonneg" → Nonnegative. It is the
// single parsing point shared by the CLIs, the experiment configs and the
// twopcp options layer, so fingerprint names cannot drift between them.
func NewSolver(name string, lambda float64) (Solver, error) {
	switch name {
	case "", "none", "ls":
		if lambda != 0 {
			return nil, fmt.Errorf("%w: lambda %g is only meaningful with the ridge constraint", ErrBadOptions, lambda)
		}
		return LeastSquares{}, nil
	case "ridge":
		s := Ridge{Lambda: lambda}
		if err := s.validate(); err != nil {
			return nil, err
		}
		return s, nil
	case "nonneg":
		if lambda != 0 {
			return nil, fmt.Errorf("%w: lambda %g is only meaningful with the ridge constraint", ErrBadOptions, lambda)
		}
		return Nonnegative{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown constraint %q (want none, ridge or nonneg)", ErrBadOptions, name)
	}
}
