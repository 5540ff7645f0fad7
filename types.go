package twopcp

import (
	"fmt"
	"math/rand"

	"twopcp/internal/buffer"
	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/schedule"
	"twopcp/internal/tensor"
)

// Core data types, re-exported from the internal packages so the public
// surface is a single import.
type (
	// Dense is a dense N-mode tensor (Fortran order, mode 0 fastest).
	Dense = tensor.Dense
	// COO is a sparse N-mode tensor in coordinate format.
	COO = tensor.COO
	// Matrix is a dense row-major float64 matrix.
	Matrix = mat.Matrix
	// KTensor is a Kruskal tensor: weights λ plus one factor per mode.
	KTensor = cpals.KTensor
	// Pattern describes a grid partitioning of a tensor.
	Pattern = grid.Pattern
)

// Schedule selects the Phase-2 update schedule (paper §V–VI).
type Schedule = schedule.Kind

// The paper's four update schedules.
const (
	// ModeCentric is the conventional schedule (Algorithm 1).
	ModeCentric = schedule.ModeCentric
	// FiberOrder traverses blocks in nested-loop order (§VI-B).
	FiberOrder = schedule.FiberOrder
	// ZOrder traverses blocks along a Morton curve (§VI-C.1).
	ZOrder = schedule.ZOrder
	// HilbertOrder traverses blocks along a Hilbert curve (§VI-C.2).
	HilbertOrder = schedule.HilbertOrder
)

// Constraint selects the row-update solver family applied by both phases
// (Options.Constraint). The zero value is the unconstrained default.
type Constraint int

// The solver families selectable through Options.Constraint.
const (
	// ConstraintNone runs plain least-squares ALS — the historical
	// behavior, bit-for-bit unchanged.
	ConstraintNone Constraint = iota
	// ConstraintRidge damps every normal-equation solve with
	// Options.Lambda·I (Tikhonov regularization), bounding the Gram
	// system's conditioning by (λ_max+Λ)/Λ.
	ConstraintRidge
	// ConstraintNonneg keeps every factor entry ≥ 0 element-wise (HALS
	// row updates over the cached Gram systems).
	ConstraintNonneg
)

// String returns the constraint's CLI name: none, ridge or nonneg.
func (c Constraint) String() string {
	switch c {
	case ConstraintNone:
		return "none"
	case ConstraintRidge:
		return "ridge"
	case ConstraintNonneg:
		return "nonneg"
	}
	return fmt.Sprintf("Constraint(%d)", int(c))
}

// ParseConstraint maps a CLI name ("none"/""/"ls", "ridge", "nonneg") to
// its Constraint.
func ParseConstraint(s string) (Constraint, error) {
	switch s {
	case "", "none", "ls":
		return ConstraintNone, nil
	case "ridge":
		return ConstraintRidge, nil
	case "nonneg":
		return ConstraintNonneg, nil
	}
	return 0, fmt.Errorf("twopcp: unknown constraint %q (want none, ridge or nonneg)", s)
}

// Accelerator selects the Phase-0 acceleration strategy applied before
// the standard Phase-1/Phase-2 passes (Options.Accelerator). The zero
// value runs the pipeline brute-force, bit-for-bit the historical
// behavior.
type Accelerator int

// The Phase-0 strategies selectable through Options.Accelerator.
const (
	// AccelNone disables Phase 0.
	AccelNone Accelerator = iota
	// AccelTucker compresses the tensor to a Tucker core via randomized
	// range finding, runs CP-ALS on the core, and expands the factors as
	// a warm start for Phase 1 (compress-then-CP). Falls back to brute
	// force when the core would not be meaningfully smaller than the
	// tensor.
	AccelTucker
)

// String returns the accelerator's CLI name: none or tucker.
func (a Accelerator) String() string {
	switch a {
	case AccelNone:
		return "none"
	case AccelTucker:
		return "tucker"
	}
	return fmt.Sprintf("Accelerator(%d)", int(a))
}

// ParseAccelerator maps a CLI name ("none"/"", "tucker") to its
// Accelerator.
func ParseAccelerator(s string) (Accelerator, error) {
	switch s {
	case "", "none":
		return AccelNone, nil
	case "tucker":
		return AccelTucker, nil
	}
	return 0, fmt.Errorf("twopcp: unknown accelerator %q (want none or tucker)", s)
}

// fingerprint returns the accelerator name recorded in checkpoint
// manifests: "" for none (keeping pre-accelerator manifests resumable),
// otherwise the CLI name.
func (a Accelerator) fingerprint() string {
	if a == AccelNone {
		return ""
	}
	return a.String()
}

// solver maps the constraint (plus the ridge weight) to its cpals solver,
// validating the combination. An out-of-range Constraint value fails
// NewSolver's name check. The manifest fingerprint name is derived from
// the solver itself (cpals.FingerprintName), never from a second
// spelling here.
func (c Constraint) solver(lambda float64) (cpals.Solver, error) {
	s, err := cpals.NewSolver(c.String(), lambda)
	if err != nil {
		return nil, fmt.Errorf("twopcp: %w", err)
	}
	return s, nil
}

// Replacement selects the buffer replacement policy (paper §VII).
type Replacement = buffer.Policy

// The paper's three replacement policies.
const (
	// LRU evicts the least-recently-used unit.
	LRU = buffer.LRU
	// MRU evicts the most-recently-used unit.
	MRU = buffer.MRU
	// Forward evicts the unit needed furthest in the future (FOR).
	Forward = buffer.Forward
)

// NewDense returns a zero dense tensor with the given mode sizes.
func NewDense(dims ...int) *Dense { return tensor.NewDense(dims...) }

// NewCOO returns an empty sparse tensor with the given mode sizes.
func NewCOO(dims ...int) *COO { return tensor.NewCOO(dims...) }

// RandomDense returns a dense tensor with uniform [0,1) entries.
func RandomDense(rng *rand.Rand, dims ...int) *Dense { return tensor.RandomDense(rng, dims...) }

// RandomCOO returns a sparse tensor with ~density·ΠDims uniform entries.
func RandomCOO(rng *rand.Rand, density float64, dims ...int) *COO {
	return tensor.RandomCOO(rng, density, dims...)
}

// FromDense converts a dense tensor to sparse COO form.
func FromDense(d *Dense) *COO { return tensor.FromDense(d) }

// LoadDense reads a dense tensor from a twopcp binary file.
func LoadDense(path string) (*Dense, error) { return tensor.LoadDense(path) }

// SaveDense writes a dense tensor to a twopcp binary file.
func SaveDense(path string, t *Dense) error { return tensor.SaveDense(path, t) }

// LoadCOO reads a sparse tensor from a twopcp binary file.
func LoadCOO(path string) (*COO, error) { return tensor.LoadCOO(path) }

// SaveCOO writes a sparse tensor to a twopcp binary file.
func SaveCOO(path string, t *COO) error { return tensor.SaveCOO(path, t) }

// NewKTensor builds a Kruskal tensor with unit weights from factors.
func NewKTensor(factors []*Matrix) *KTensor { return cpals.NewKTensor(factors) }

// Congruence returns the factor match score between two Kruskal models
// (1 = identical components up to permutation and per-mode scaling). Use it
// to check whether a decomposition recovered a known ground truth.
func Congruence(a, b *KTensor) float64 { return cpals.Congruence(a, b) }
