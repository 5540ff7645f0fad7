// Package phase1 implements the first phase of 2PCP (paper §IV): the input
// tensor is partitioned into a grid of sub-tensors and every sub-tensor is
// decomposed independently with CP-ALS — "potentially in parallel", which
// here means Workers goroutines reading blocks through Stream.
//
// The per-block results are the sub-factors U(i)_k of equation (1),
// X_k ≈ I ×₁ U(1)_k ... ×_N U(N)_k: the block's Kruskal weights λ are
// folded into the factors (λ^(1/N) per mode) because the grid model has an
// identity core. Empty blocks yield zero matrices (paper footnote 3).
package phase1

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"twopcp/internal/blockstore"
	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/obs"
	"twopcp/internal/tensor"
)

// ErrStopped is returned by Run (and Stream) when Options.Stop was closed
// before every block completed: the workers finished (and checkpointed)
// their in-flight blocks and no further ones were handed out. A later run
// with the same Checkpoint resumes exactly where the drain stopped.
var ErrStopped = errors.New("phase1: stopped before completion")

// QuarantineError reports the blocks Run could not decompose after
// exhausting their retry budget. The sibling blocks' work is NOT lost:
// with a Checkpointer configured every completed block is durably
// recorded, so a later run recomputes only the quarantined blocks (the
// quarantined ones are never checkpointed). Unwrap exposes the per-block
// causes, so errors.Is/As classification (e.g. blockstore.ErrInjected)
// sees through the aggregation.
type QuarantineError struct {
	// Blocks lists the quarantined linear block ids, ascending.
	Blocks []int
	// Errs holds the final error of each block, parallel to Blocks.
	Errs []error
}

// Error implements error.
func (e *QuarantineError) Error() string {
	if len(e.Blocks) == 1 {
		return fmt.Sprintf("phase1: block %d quarantined: %v", e.Blocks[0], e.Errs[0])
	}
	return fmt.Sprintf("phase1: %d blocks quarantined (first: block %d: %v)",
		len(e.Blocks), e.Blocks[0], e.Errs[0])
}

// Unwrap exposes the per-block causes to errors.Is/As.
func (e *QuarantineError) Unwrap() []error { return e.Errs }

// Source yields the sub-tensor at a grid position. Implementations may be
// in-memory views or out-of-core tiled-file readers. Block may return either a
// *tensor.Dense or a *tensor.COO; the appropriate ALS kernel is selected
// per block.
type Source interface {
	Pattern() *grid.Pattern
	Block(vec []int) (any, error)
}

// DenseSource serves blocks of an in-memory dense tensor.
type DenseSource struct {
	X *tensor.Dense
	P *grid.Pattern
}

// NewDenseSource validates that the pattern matches the tensor shape.
func NewDenseSource(x *tensor.Dense, p *grid.Pattern) (*DenseSource, error) {
	if !slices.Equal(x.Dims, p.Dims) {
		return nil, fmt.Errorf("phase1: tensor dims %v do not match pattern dims %v", x.Dims, p.Dims)
	}
	return &DenseSource{X: x, P: p}, nil
}

// Pattern implements Source.
func (s *DenseSource) Pattern() *grid.Pattern { return s.P }

// Block implements Source.
func (s *DenseSource) Block(vec []int) (any, error) {
	from, size := s.P.Block(vec)
	return s.X.SubTensor(from, size), nil
}

// COOSource serves blocks of an in-memory sparse tensor.
type COOSource struct {
	X *tensor.COO
	P *grid.Pattern
}

// NewCOOSource validates that the pattern matches the tensor shape.
func NewCOOSource(x *tensor.COO, p *grid.Pattern) (*COOSource, error) {
	if !slices.Equal(x.Dims, p.Dims) {
		return nil, fmt.Errorf("phase1: tensor dims %v do not match pattern dims %v", x.Dims, p.Dims)
	}
	return &COOSource{X: x, P: p}, nil
}

// Pattern implements Source.
func (s *COOSource) Pattern() *grid.Pattern { return s.P }

// Block implements Source.
func (s *COOSource) Block(vec []int) (any, error) {
	from, size := s.P.Block(vec)
	return s.X.SubTensorCOO(from, size), nil
}

// Checkpointer persists completed block decompositions so an interrupted
// Phase 1 can restart without redoing them. runstate.Run is the production
// implementation. Because every block is seeded from Seed ^ blockID, a
// reloaded block is bit-identical to a recomputed one, so mixing
// checkpointed and fresh blocks cannot change the Result.
type Checkpointer interface {
	// LoadBlock returns the previously recorded sub-factors and fit of
	// block id, or ok=false when none (or an unusable one) exists.
	LoadBlock(id int) (factors []*mat.Matrix, fit float64, ok bool, err error)
	// SaveBlock records a completed block: runstate.Run's record survives
	// the process at once and the disk within a second (a record a power
	// loss takes is recomputed). It must be safe for concurrent use (the
	// workers checkpoint in parallel).
	SaveBlock(id int, factors []*mat.Matrix, fit float64) error
}

// Options configures Phase 1.
type Options struct {
	// Rank is the target decomposition rank F.
	Rank int
	// MaxIters and Tol are passed to the per-block ALS (defaults 50, 1e-4).
	MaxIters int
	Tol      float64
	// Seed derives per-block generators (seed ^ blockID), keeping parallel
	// runs bit-reproducible regardless of scheduling.
	Seed int64
	// Workers bounds parallel block decompositions (default GOMAXPROCS).
	Workers int
	// Buffers, when non-nil, is the run's block storage, lent to the pass
	// (see Stream).
	Buffers *Buffers
	// Checkpoint, when non-nil, records every completed block and skips
	// blocks it already holds — completed blocks are not even read from
	// the Source again.
	Checkpoint Checkpointer
	// Solver picks the per-block ALS row update (nil = least squares,
	// bit-for-bit the historical path). Every block uses the same solver;
	// the per-block seeding and the worker-count invariance are untouched
	// because the solver runs inside the (deterministic, serial) ALS
	// sweep of each block.
	Solver cpals.Solver
	// Init optionally supplies global warm-start factors (Dims[k]×Rank):
	// each block's ALS starts from the row slices covering its extents
	// instead of the seeded random init — the Phase-0 accelerator's
	// handoff. The grid model restricted to a block's rows is exactly the
	// block's share of the global model, so a good global warm start
	// converges per-block in a few sweeps. Worker-count invariance is
	// unchanged: the slices are value copies and the per-block ALS stays
	// deterministic.
	Init []*mat.Matrix
	// Obs receives telemetry: a phase1.block trace event per completed
	// block (emitted as the block merges, in block-id order at every
	// worker count) and blocks/sweeps counters.
	// Nil disables it at ~zero cost.
	Obs *obs.Observer
	// MaxRetries is the transient-fault budget for block reads and
	// checkpoint writes: each failing Source.Block or SaveBlock is retried
	// up to MaxRetries times with backoff (jitter seeded by Seed) before
	// the block is quarantined. 0 disables retrying (first failure
	// quarantines). Retries never change numerics: a block decomposed after
	// three read retries is seeded and swept identically to one that read
	// cleanly.
	MaxRetries int
	// Stop, when non-nil and closed, drains the run gracefully: workers
	// finish (and checkpoint) the blocks they hold, no new blocks start,
	// and Run returns ErrStopped.
	Stop <-chan struct{}
}

// Result carries the Phase-1 sub-factors.
type Result struct {
	Pattern *grid.Pattern
	Rank    int
	// Sub[blockID][mode] is U(mode)_block with λ folded in; blockID is the
	// pattern's linear block id.
	Sub [][]*mat.Matrix
	// Fits records the per-block ALS fit (1 for empty blocks).
	Fits []float64
	// Sweeps records the per-block ALS sweep count: 0 for blocks restored
	// from a checkpoint (nothing was recomputed) and for empty blocks.
	Sweeps []int
	// Quarantined lists the blocks that failed past their retry budget
	// (ascending block id); empty on a clean run. When non-empty, Run
	// also returns a *QuarantineError and the listed blocks' Sub entries
	// must not be used.
	Quarantined []int
	// Retries counts the transient-fault retries performed under
	// Options.MaxRetries.
	Retries int64
}

// TotalSweeps sums the per-block ALS sweep counts.
func (r *Result) TotalSweeps() int {
	total := 0
	for _, s := range r.Sweeps {
		total += s
	}
	return total
}

// Run decomposes every block of src on Stream, Workers blocks at a time.
func Run(src Source, opts Options) (*Result, error) {
	p := src.Pattern()
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("phase1: rank %d", opts.Rank)
	}
	nb := p.NumBlocks()
	res := &Result{
		Pattern: p,
		Rank:    opts.Rank,
		Sub:     make([][]*mat.Matrix, nb),
		Fits:    make([]float64, nb),
		Sweeps:  make([]int, nb),
	}
	// retryer heals transient faults on the block-read and
	// checkpoint-write paths; trace events address Phase-1 blocks with
	// mode -1 and the block id in part.
	retryer := blockstore.NewRetryer(opts.MaxRetries, opts.Seed, opts.Obs)
	// block restores a checkpointed block without a read; any other is
	// read and checkpointed under the retry budget, decomposed in between.
	// A spent budget quarantines the block, an outcome rather than an error
	// of the stream: one poison block must not discard its siblings' work
	// (a later run recomputes only the quarantined ones).
	block := func(ws *cpals.Workspace, id int, vec []int, read func() (any, error)) (b blockOut, _ error) {
		if opts.Checkpoint != nil {
			factors, fit, ok, err := opts.Checkpoint.LoadBlock(id)
			if err != nil {
				return blockOut{err: err}, nil
			}
			if ok && blockShapeOK(factors, vec, p, opts.Rank) {
				return blockOut{factors: factors, fit: fit, cached: true}, nil
			}
		}
		var x any
		b.err = retryer.Do("block", -1, id, func() (err error) { x, err = read(); return err })
		if b.err != nil {
			return b, nil
		}
		b.factors, b.fit, b.sweeps, b.err = DecomposeBlock(x, id, p, opts, ws)
		if b.err == nil && opts.Checkpoint != nil {
			b.err = retryer.Do("save", -1, id, func() error { return opts.Checkpoint.SaveBlock(id, b.factors, b.fit) })
		}
		return b, nil
	}
	var qe QuarantineError
	// Each worker reuses one ALS workspace across its blocks.
	err := Stream(src, opts.Workers, opts.Stop, opts.Buffers, cpals.NewWorkspace, block,
		func(id int, vec []int, b blockOut) {
			if b.err != nil {
				qe.Blocks = append(qe.Blocks, id)
				qe.Errs = append(qe.Errs, fmt.Errorf("phase1: block %v: %w", vec, b.err))
				return
			}
			res.Sub[id], res.Fits[id], res.Sweeps[id] = b.factors, b.fit, b.sweeps
			opts.Obs.Counter("phase1.blocks_done").Inc()
			opts.Obs.Counter("phase1.sweeps").Add(int64(b.sweeps))
			if opts.Obs.Tracing() {
				opts.Obs.Emit("phase1.block",
					obs.Int("block", id), obs.F64("fit", b.fit),
					obs.Int("sweeps", b.sweeps), obs.Bool("cached", b.cached))
			}
		})
	res.Retries = retryer.Retries()
	if len(qe.Blocks) > 0 {
		res.Quarantined = qe.Blocks
		return res, &qe
	}
	return res, err
}

// blockOut is one block's Phase-1 outcome: its sub-factors, fit and sweep
// count, or the error that quarantines it.
type blockOut struct {
	factors []*mat.Matrix
	fit     float64
	sweeps  int
	cached  bool // restored from the checkpoint, not recomputed
	err     error
}

// blockShapeOK reports whether checkpointed factors have the shape this
// run's pattern and rank demand; anything else is silently recomputed (a
// manifest-level fingerprint mismatch is rejected upstream, so this only
// guards against damaged block files).
func blockShapeOK(factors []*mat.Matrix, vec []int, p *grid.Pattern, rank int) bool {
	_, size := p.Block(vec)
	if len(factors) != len(size) {
		return false
	}
	for m, f := range factors {
		if f == nil || f.Rows != size[m] || f.Cols != rank {
			return false
		}
	}
	return true
}

// DecomposeBlock runs CP-ALS on one block (dense or COO) and returns its
// λ-folded sub-factors, the achieved fit and the ALS sweep count. Empty
// blocks return zero matrices and fit 1. The blockID seeds the per-block
// generator. ws is an optional reusable ALS workspace (Run's workers each
// hold one); results are identical with or without it.
func DecomposeBlock(block any, blockID int, p *grid.Pattern, opts Options, ws *cpals.Workspace) ([]*mat.Matrix, float64, int, error) {
	vec := p.Unlinear(blockID, nil)
	from, size := p.Block(vec)
	rng := rand.New(rand.NewSource(opts.Seed ^ int64(blockID)*0x9E3779B9))
	alsOpts := cpals.Options{Rank: opts.Rank, MaxIters: opts.MaxIters, Tol: opts.Tol, Rng: rng, Workspace: ws, Solver: opts.Solver}
	if opts.Init != nil {
		init := make([]*mat.Matrix, len(size))
		usable := true
		for m := range init {
			init[m] = opts.Init[m].SliceRows(from[m], from[m]+size[m])
			// An all-zero mode slice would collapse the whole block model
			// (every MTTKRP against it is zero); such blocks keep the
			// seeded random init instead — deterministic either way.
			usable = usable && init[m].Norm() > 0
		}
		if usable {
			alsOpts.Init = init
		}
	}

	var (
		kt   *cpals.KTensor // stays nil for an empty block
		info cpals.Info
		err  error
	)
	switch b := block.(type) {
	case *tensor.Dense:
		if b.HasNonZero() {
			kt, info, err = cpals.Decompose(b, alsOpts)
		}
	case *tensor.COO:
		if b.NNZ() > 0 {
			kt, info, err = cpals.DecomposeSparse(b, alsOpts)
		}
	default:
		return nil, 0, 0, fmt.Errorf("phase1: unsupported block type %T", block)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	if kt == nil {
		// Paper footnote 3: empty sub-tensors get zero factors.
		factors := make([]*mat.Matrix, len(size))
		for m, rows := range size {
			factors[m] = mat.New(rows, opts.Rank)
		}
		return factors, 1, 0, nil
	}
	return FoldLambda(kt), info.Fit, info.Iters, nil
}

// FoldLambda converts a Kruskal tensor to the identity-core form of
// equation (1) by scaling each factor column by λ^(1/N). The KTensor is
// consumed (its factors are returned, scaled).
func FoldLambda(kt *cpals.KTensor) []*mat.Matrix {
	n := len(kt.Factors)
	scale := make([]float64, kt.Rank())
	for f, l := range kt.Lambda {
		// Defensive: our ALS produces non-negative λ, but fold the sign
		// into the first mode if one ever appears.
		scale[f] = math.Pow(math.Abs(l), 1/float64(n))
	}
	for m, a := range kt.Factors {
		s := scale
		if m == 0 {
			s = append([]float64(nil), scale...)
			for f, l := range kt.Lambda {
				if l < 0 {
					s[f] = -s[f]
				}
			}
		}
		a.ScaleColumns(s)
	}
	return kt.Factors
}
