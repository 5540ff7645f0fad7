// Package phase1 implements the first phase of 2PCP (paper §IV): the input
// tensor is partitioned into a grid of sub-tensors and every sub-tensor is
// decomposed independently with CP-ALS — "potentially in parallel", which
// here means a goroutine worker pool by default and, alternatively, the
// paper's exact map/reduce operators on the in-process MapReduce engine
// (see RunMapReduce).
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
	"runtime"
	"sort"
	"sync"

	"twopcp/internal/blockstore"
	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/obs"
	"twopcp/internal/tensor"
)

// ErrStopped is returned by Run when Options.Stop was closed before every
// block completed: the workers finished (and checkpointed) their in-flight
// blocks, the producer handed out no further ones. A later run with the
// same Checkpoint resumes exactly where the drain stopped.
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
	if len(x.Dims) != len(p.Dims) {
		return nil, fmt.Errorf("phase1: tensor has %d modes, pattern %d", len(x.Dims), len(p.Dims))
	}
	for i := range x.Dims {
		if x.Dims[i] != p.Dims[i] {
			return nil, fmt.Errorf("phase1: mode %d: tensor size %d != pattern size %d", i, x.Dims[i], p.Dims[i])
		}
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
	if len(x.Dims) != len(p.Dims) {
		return nil, fmt.Errorf("phase1: tensor has %d modes, pattern %d", len(x.Dims), len(p.Dims))
	}
	for i := range x.Dims {
		if x.Dims[i] != p.Dims[i] {
			return nil, fmt.Errorf("phase1: mode %d: tensor size %d != pattern size %d", i, x.Dims[i], p.Dims[i])
		}
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
	// worker pool checkpoints in parallel).
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
	// block (emitted by the worker that finished it, so the event
	// multiset is worker-count invariant) and blocks/sweeps counters.
	// Nil disables it at ~zero cost.
	Obs *obs.Observer
	// Retry is the transient-fault policy for block reads and checkpoint
	// writes: each failing Source.Block or SaveBlock is retried up to the
	// budget with backoff before the block is quarantined. The zero value
	// disables retrying (first failure quarantines). Retries never change
	// numerics: a block decomposed after three read retries is seeded and
	// swept identically to one that read cleanly.
	Retry blockstore.RetryPolicy
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
	// Options.Retry.
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

// SubFactor returns U(mode) of the block at linear id.
func (r *Result) SubFactor(blockID, mode int) *mat.Matrix { return r.Sub[blockID][mode] }

// Run decomposes every block of src with a worker pool.
func Run(src Source, opts Options) (*Result, error) {
	p := src.Pattern()
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("phase1: rank %d", opts.Rank)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nb := p.NumBlocks()
	res := &Result{
		Pattern: p,
		Rank:    opts.Rank,
		Sub:     make([][]*mat.Matrix, nb),
		Fits:    make([]float64, nb),
		Sweeps:  make([]int, nb),
	}
	cBlocks := opts.Obs.Counter("phase1.blocks_done")
	cSweeps := opts.Obs.Counter("phase1.sweeps")
	blockDone := func(id int, fit float64, sweeps int, cached bool) {
		cBlocks.Inc()
		cSweeps.Add(int64(sweeps))
		if opts.Obs.Tracing() {
			opts.Obs.Emit("phase1.block",
				obs.Int("block", id), obs.F64("fit", fit),
				obs.Int("sweeps", sweeps), obs.Bool("cached", cached))
		}
	}
	type job struct {
		id  int
		vec []int
	}
	jobs := make(chan job)
	// retryer heals transient faults on the block-read and
	// checkpoint-write paths; trace events address Phase-1 blocks with
	// mode -1 and the block id in part.
	retryer := blockstore.NewRetryer(opts.Retry, opts.Obs)
	// A source that can read a block into the previous one's storage gets
	// each worker's last block back: nothing keeps a block once it is
	// decomposed.
	reuser, _ := src.(interface {
		BlockInto(buf any, vec []int) (any, error)
	})
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		qBlocks []int
		qErrs   []error
	)
	// quarantine records a block whose retry budget is spent and lets the
	// worker move on: one poison block must not discard its siblings'
	// work (they are individually checkpointed, so a later run recomputes
	// only the quarantined ones).
	quarantine := func(id int, vec []int, err error) {
		mu.Lock()
		qBlocks = append(qBlocks, id)
		qErrs = append(qErrs, fmt.Errorf("phase1: block %v: %w", vec, err))
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one ALS workspace, reused across its blocks
			// so per-sweep scratch is allocated once, not per block.
			ws := cpals.NewWorkspace()
			var last any // the block decomposed before this one
			for j := range jobs {
				if opts.Checkpoint != nil {
					factors, fit, ok, err := opts.Checkpoint.LoadBlock(j.id)
					if err != nil {
						quarantine(j.id, j.vec, err)
						continue
					}
					if ok && blockShapeOK(factors, j.vec, p, opts.Rank) {
						res.Sub[j.id] = factors
						res.Fits[j.id] = fit
						blockDone(j.id, fit, 0, true)
						continue
					}
				}
				var block any
				err := retryer.Do("block", -1, j.id, func() error {
					var e error
					if reuser != nil {
						block, e = reuser.BlockInto(last, j.vec)
					} else {
						block, e = src.Block(j.vec)
					}
					return e
				})
				if err == nil {
					last = block
					var factors []*mat.Matrix
					var fit float64
					var sweeps int
					factors, fit, sweeps, err = decomposeBlock(block, j.id, p, opts, ws)
					if err == nil {
						res.Sub[j.id] = factors
						res.Fits[j.id] = fit
						res.Sweeps[j.id] = sweeps
						if opts.Checkpoint != nil {
							err = retryer.Do("save", -1, j.id, func() error {
								return opts.Checkpoint.SaveBlock(j.id, factors, fit)
							})
						}
						if err == nil {
							blockDone(j.id, fit, sweeps, false)
						}
					}
				}
				if err != nil {
					quarantine(j.id, j.vec, err)
				}
			}
		}()
	}
	stopped := false
send:
	for id, vec := range p.Positions() {
		// Graceful drain: stop handing out blocks; workers finish (and
		// checkpoint) what they hold. Stop is checked on its own first: a
		// select with a worker waiting picks a ready case at random, and
		// would hand out a block after Stop closed.
		select {
		case <-opts.Stop:
			stopped = true
			break send
		default:
		}
		select {
		case jobs <- job{id: id, vec: vec}:
		case <-opts.Stop:
			stopped = true
			break send
		}
	}
	close(jobs)
	wg.Wait()
	res.Retries = retryer.Retries()
	if len(qBlocks) > 0 {
		// Workers finish in nondeterministic order; report ascending.
		order := make([]int, len(qBlocks))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return qBlocks[order[a]] < qBlocks[order[b]] })
		qe := &QuarantineError{Blocks: make([]int, len(order)), Errs: make([]error, len(order))}
		for i, o := range order {
			qe.Blocks[i] = qBlocks[o]
			qe.Errs[i] = qErrs[o]
		}
		res.Quarantined = qe.Blocks
		return res, qe
	}
	if stopped {
		return res, ErrStopped
	}
	return res, nil
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
// λ-folded sub-factors plus the achieved fit. Empty blocks return zero
// matrices and fit 1. The blockID seeds the per-block generator.
func DecomposeBlock(block any, blockID int, p *grid.Pattern, opts Options) ([]*mat.Matrix, float64, error) {
	factors, fit, _, err := decomposeBlock(block, blockID, p, opts, nil)
	return factors, fit, err
}

// decomposeBlock is DecomposeBlock with an optional reusable ALS workspace
// (Run's workers each hold one) and the ALS sweep count as an extra
// return. Results are identical with or without the workspace.
func decomposeBlock(block any, blockID int, p *grid.Pattern, opts Options, ws *cpals.Workspace) ([]*mat.Matrix, float64, int, error) {
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
		if l < 0 {
			// Defensive: our ALS produces non-negative λ, but fold the
			// sign into the first mode if one ever appears.
			scale[f] = pow(-l, 1/float64(n))
		} else {
			scale[f] = pow(l, 1/float64(n))
		}
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

func pow(x, p float64) float64 { return math.Pow(x, p) }
