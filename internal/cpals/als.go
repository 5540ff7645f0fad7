package cpals

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// Options configures a CP-ALS run.
type Options struct {
	// Rank is the target decomposition rank F; it must be positive.
	Rank int
	// MaxIters bounds the number of ALS sweeps (default 50).
	MaxIters int
	// Tol stops the iteration once the fit improves by less than Tol
	// between consecutive sweeps (default 1e-4). The paper's §VIII-C uses
	// 1e-2 per (virtual) iteration.
	Tol float64
	// Rng supplies factor initialization randomness; required unless Init
	// is given. Passing the generator explicitly keeps every run
	// reproducible.
	Rng *rand.Rand
	// Init optionally supplies initial factor matrices (Dims[k]×Rank);
	// they are cloned, not mutated.
	Init []*mat.Matrix
	// Workspace optionally supplies reusable scratch so repeated
	// decompositions (e.g. Phase 1's per-block ALS) stop allocating per
	// sweep. The same workspace may be reused across calls of any shape
	// but must not be shared by concurrent calls; results are identical
	// with or without it.
	Workspace *Workspace
	// Solver picks the row-block update applied each mode sweep; nil
	// selects LeastSquares, the historical unconstrained behavior (the
	// default path is bit-for-bit unchanged). See the Solver contract for
	// what Ridge and Nonnegative guarantee.
	Solver Solver
}

// Info reports how an ALS run went.
type Info struct {
	Iters     int       // sweeps executed
	Fit       float64   // final fit 1 − ‖X−X̂‖/‖X‖
	FitTrace  []float64 // fit after each sweep
	Converged bool      // true if the tolerance was met before MaxIters
}

// ErrBadOptions is returned for invalid option combinations.
var ErrBadOptions = errors.New("cpals: invalid options")

func (o *Options) normalize(dims []int) (Options, error) {
	out := *o
	if out.Rank <= 0 {
		return out, fmt.Errorf("%w: rank %d", ErrBadOptions, out.Rank)
	}
	if out.MaxIters <= 0 {
		out.MaxIters = 50
	}
	if out.Tol <= 0 {
		out.Tol = 1e-4
	}
	if out.Init != nil {
		if len(out.Init) != len(dims) {
			return out, fmt.Errorf("%w: %d init factors for %d modes", ErrBadOptions, len(out.Init), len(dims))
		}
		for k, m := range out.Init {
			if m.Rows != dims[k] || m.Cols != out.Rank {
				return out, fmt.Errorf("%w: init factor %d is %d×%d, want %d×%d",
					ErrBadOptions, k, m.Rows, m.Cols, dims[k], out.Rank)
			}
		}
	} else if out.Rng == nil {
		return out, fmt.Errorf("%w: need Rng or Init", ErrBadOptions)
	}
	if err := ValidateSolver(out.Solver); err != nil {
		return out, err
	}
	if out.Solver == nil {
		out.Solver = LeastSquares{}
	}
	return out, nil
}

// ErrNonFinite is returned when the input holds a NaN or ±Inf cell. The
// check is on ‖X‖, which ALS computes anyway, so a finite tensor whose
// squared norm overflows float64 is rejected too.
var ErrNonFinite = errors.New("cpals: tensor has a non-finite norm (NaN or ±Inf cell)")

// kernel is the MTTKRP an ALS run is built on.
type kernel interface {
	Into(dst *mat.Matrix, factors []*mat.Matrix, n int)
}

// sparseKernel is the COO MTTKRP.
type sparseKernel struct{ x *tensor.COO }

func (k sparseKernel) Into(dst *mat.Matrix, factors []*mat.Matrix, n int) {
	tensor.MTTKRPSparseInto(dst, k.x, factors, n)
}

// Decompose runs CP-ALS on a dense tensor. The MTTKRPs go through the
// workspace's tensor.Sweep: each mode's update rewrites only its own
// factor, so the contraction of x with the factor just rewritten serves
// the next N−1 modes, and a sweep reads x N/(N−1) times (1.5 for three
// modes) instead of once per mode. Where mode 0 is a block's longest, a
// sweep reads it twice: the mode-0 pass and the S pass shared by modes
// 1..N-1.
func Decompose(x *tensor.Dense, opts Options) (*KTensor, Info, error) {
	if opts.Workspace == nil {
		opts.Workspace = NewWorkspace()
	}
	sw := &opts.Workspace.sweep
	sw.Bind(x)
	defer sw.Bind(nil) // a long-lived workspace must not pin the block
	return alsCore(x.Dims, x.Norm(), sw, opts)
}

// DecomposeSparse runs CP-ALS on a sparse tensor.
func DecomposeSparse(x *tensor.COO, opts Options) (*KTensor, Info, error) {
	return alsCore(x.Dims, x.Norm(), sparseKernel{x}, opts)
}

// alsCore is the shared ALS loop, parameterized only by the MTTKRP kernel
// so dense and sparse inputs share one implementation. All sweep scratch —
// the MTTKRP accumulators, V, the Gram cache and the solve/normalize
// buffers — comes from the workspace, and the factor matrices are updated
// in place, so steady-state sweeps perform no allocation.
func alsCore(dims []int, normX float64, mttkrp kernel, opts Options) (*KTensor, Info, error) {
	o, err := opts.normalize(dims)
	if err != nil {
		return nil, Info{}, err
	}
	if math.IsNaN(normX) || math.IsInf(normX, 0) {
		return nil, Info{}, ErrNonFinite
	}
	n := len(dims)
	f := o.Rank
	ws := o.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.reset(n, f)

	factors := make([]*mat.Matrix, n)
	if o.Init != nil {
		for k := range factors {
			factors[k] = o.Init[k].Clone()
		}
	} else {
		for k := range factors {
			factors[k] = mat.Random(dims[k], f, o.Rng)
		}
	}
	lambda := ws.lambda
	for i := range lambda {
		lambda[i] = 1
	}
	// Cache the Gram matrices A(k)ᵀA(k); refresh after each factor update.
	grams := ws.grams[:n]
	for k := range grams {
		mat.GramInto(grams[k], factors[k])
	}
	v := ws.v

	info := Info{}
	prevFit := 0.0
	for iter := 1; iter <= o.MaxIters; iter++ {
		var lastM *mat.Matrix
		for mode := 0; mode < n; mode++ {
			m := ws.mttkrpBuf(dims[mode])
			mttkrp.Into(m, factors, mode)
			// V = ⊛_{k≠mode} A(k)ᵀA(k)
			v.Fill(1)
			for k := 0; k < n; k++ {
				if k != mode {
					v.HadamardInPlace(grams[k])
				}
			}
			a := factors[mode]
			if o.Solver.WarmStart() {
				// Unfold λ into the warm start: the factor columns are
				// unit-norm with the model's scale held in λ, but the
				// solver's iterate lives at the true scale of the update
				// target, so the warm start is A·diag(λ).
				a.ScaleColumns(lambda)
			}
			o.Solver.Solve(a, m, v, &ws.solver)
			a.NormalizeColumnsTo(ws.norms, ws.inv, 1e-300)
			copy(lambda, ws.norms)
			// Refresh the Gram cache from the *normalized* factor: the
			// sweep-end fit below reads this cache, so it must reflect the
			// exact factors/λ the returned KTensor will carry (the
			// TestFitMatchesDirectNorm regression pins this against the
			// direct-norm fit).
			mat.GramInto(grams[mode], a)
			lastM = m
		}
		// Fit via the last mode's MTTKRP: ⟨X,X̂⟩ = Σ_f λ_f Σ_i M[i,f]A[i,f],
		// with ‖X̂‖ from the cached Grams (the Kruskal identity, see
		// KTensor.Norm) instead of re-Gramming every factor.
		inner := innerFromMTTKRP(lastM, factors[n-1], lambda)
		v.Fill(1)
		for k := 0; k < n; k++ {
			v.HadamardInPlace(grams[k])
		}
		norm2 := mat.QuadForm(v, lambda, lambda)
		if norm2 < 0 {
			norm2 = 0
		}
		fit := fitFromParts(normX, math.Sqrt(norm2), inner)
		info.FitTrace = append(info.FitTrace, fit)
		info.Iters = iter
		info.Fit = fit
		if iter > 1 && abs(fit-prevFit) < o.Tol {
			info.Converged = true
			break
		}
		prevFit = fit
	}
	out := &KTensor{Lambda: append([]float64(nil), lambda...), Factors: factors}
	return out, info, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
