// Package sketch implements the Phase-0 accelerator of the pipeline:
// randomized Tucker compression of the input tensor (Halko-style range
// finding with a Khatri-Rao-structured Gaussian sketch), CP-ALS on the
// small core, and expansion of the core factors back to full size as a
// warm start for the standard Phase-1/Phase-2 passes (compress-then-CP,
// Zhou, Cichocki & Xie, arXiv 1412.1885).
//
// Everything streams over grid blocks through phase1.Stream, the pass
// Phase 1 reads with, so dense, sparse and .tptl tiled inputs are all
// sketched without materializing the tensor: the sketch Y_n is an MTTKRP
// against Gaussian factors (linear in the tensor, so per-block
// contributions with row-sliced Gaussians accumulate exactly), and the
// Tucker core is a TTM chain against the row-sliced transposed bases
// (multilinear in the tensor, so it accumulates the same way).
//
// Determinism contract: the Gaussian sketch matrices and the core ALS
// initialization derive only from Options.Seed, the blocks' contributions
// are merged in block-id order whichever worker computed them, and every
// kernel underneath (MTTKRP, TTM, QRThin, ALS) is bit-deterministic — so
// the warm start, and therefore the accelerated run, is bit-identical
// across Workers, KernelWorkers and PrefetchDepth, and recomputing Phase 0
// on resume reproduces the interrupted run exactly without any new
// checkpoint state.
package sketch

import (
	"fmt"
	"math/rand"

	"twopcp/internal/cpals"
	"twopcp/internal/mat"
	"twopcp/internal/phase1"
	"twopcp/internal/tensor"
)

// Seed mixers: distinct streams for the per-mode Gaussian sketches and
// the core ALS init, both disjoint from phase1's per-block stream
// (seed ^ blockID·0x9E3779B9) by construction of the constants.
const (
	omegaSeedMix = 0x6A09E667F3BCC909 // per-mode sketch: seed ^ (k+1)·mix
	coreSeedMix  = 0x3C6EF372FE94F82B // core ALS initialization, per restart
)

// coreRestarts is the number of independently seeded core ALS runs; the
// best-fit core model wins. The core is tiny, so restarts cost almost
// nothing, and they make the warm start robust against the local optima
// cold-started ALS is prone to on structured (orthogonal or collinear)
// inputs. Deterministic: restart seeds derive from Seed, and ties keep the
// earliest attempt. pilotCoreIters caps each pilot run; only the winning
// basin is polished to the caller's full iteration budget.
const (
	coreRestarts   = 4
	pilotCoreIters = 60
)

// Options configures the Phase-0 accelerator.
type Options struct {
	// Rank is the per-mode Tucker basis rank (Phase0Rank upstream); the
	// basis for mode n has min(I_n, Rank+Oversample) columns.
	Rank int
	// Oversample adds extra Gaussian sketch columns beyond Rank for
	// range-finder robustness (default 5).
	Oversample int
	// CPRank is the CP rank run on the core — the run's Options.Rank.
	CPRank int
	// MaxIters and Tol configure the core CP-ALS (cpals defaults apply).
	MaxIters int
	Tol      float64
	// Seed derives the sketch matrices and the core ALS init. The same
	// seed always produces the same warm start, bit for bit.
	Seed int64
	// Solver is the core ALS row solver (nil = least squares). When
	// Nonneg is set it is ignored: the core runs unconstrained and
	// nonnegativity is restored by the NN-preserving expansion.
	Solver cpals.Solver
	// Nonneg requests the NN-preserving expansion: the expanded factors
	// Q_n·Â_n are clamped at zero so the warm start is feasible for the
	// nonnegative Phase-1 solver (which then repairs the clamp damage).
	Nonneg bool
	// Workers is how many blocks each pass reads at once (<= 0:
	// GOMAXPROCS); the warm start is the same bits at every value.
	Workers int
	// Buffers, when non-nil, is the run's block storage, lent to both
	// passes (see phase1.Stream).
	Buffers *phase1.Buffers
}

func (o *Options) normalize() (Options, error) {
	out := *o
	if out.Rank <= 0 {
		return out, fmt.Errorf("sketch: rank %d", out.Rank)
	}
	if out.CPRank <= 0 {
		return out, fmt.Errorf("sketch: CP rank %d", out.CPRank)
	}
	if out.Oversample < 0 {
		return out, fmt.Errorf("sketch: oversample %d", out.Oversample)
	}
	if out.Oversample == 0 {
		out.Oversample = 5
	}
	return out, nil
}

// Result carries the Phase-0 warm start.
type Result struct {
	// Init holds the expanded global factors A_n = Q_n·Â_n (I_n×CPRank,
	// λ folded in), nil when Fallback is set.
	Init []*mat.Matrix
	// Fallback reports that Phase 0 declined to run (the compression
	// would not pay for itself, or the tensor is all zero) and the
	// caller should proceed brute-force. Reason says why.
	Fallback bool
	Reason   string
	// CoreDims, CoreFit and CoreIters describe the compressed solve.
	CoreDims  []int
	CoreFit   float64
	CoreIters int
}

// TuckerWarmStart runs the Phase-0 accelerator over src: two streaming
// passes over the blocks (one to sketch the per-mode ranges, one to
// project the Tucker core), a core CP-ALS, and the expansion back to
// full-size warm-start factors. Blocks must be *tensor.Dense or
// *tensor.COO.
func TuckerWarmStart(src phase1.Source, opts Options) (*Result, error) {
	o, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	p := src.Pattern()
	dims := p.Dims
	n := len(dims)
	s := o.Rank + o.Oversample
	coreDims := make([]int, n)
	coreCells, cells := 1.0, 1.0
	for k, d := range dims {
		coreDims[k] = d
		if s < d {
			coreDims[k] = s
		}
		coreCells *= float64(coreDims[k])
		cells *= float64(d)
	}
	// Structural fallback, decided before any block is read: when the
	// core holds at least half the tensor's cells the compressed sweeps
	// cannot win back the two sketch passes, so skip Phase 0 entirely
	// (TestTuckerWarmStartStructuralFallback pins the zero block reads).
	if 2*coreCells >= cells {
		return &Result{Fallback: true, Reason: fmt.Sprintf("core %v holds ≥ half of %v", coreDims, dims)}, nil
	}

	qs, empty, err := rangeBases(src, o.Workers, o.Buffers, s, coreDims, o.Seed)
	if err != nil {
		return nil, err
	}
	if empty {
		return &Result{Fallback: true, Reason: "tensor is all zero"}, nil
	}
	g, err := projectCore(src, o.Workers, o.Buffers, qs, coreDims)
	if err != nil {
		return nil, err
	}
	if g.Norm() == 0 {
		// Stored-but-zero entries can defeat the NNZ early-out above.
		return &Result{Fallback: true, Reason: "tensor is all zero"}, nil
	}

	coreSolver := o.Solver
	if o.Nonneg {
		coreSolver = nil // unconstrained core; expansion restores feasibility
	}
	// Multistart on the core: short pilot runs identify the best ALS
	// basin (cold-started ALS on structured tensors is prone to local
	// optima), then only the winner is polished to the full iteration
	// budget. Sweeps on the core are cheap but not free — the pilots cost
	// coreRestarts·pilotCoreIters sweeps instead of coreRestarts·o.MaxIters.
	pilot := o.MaxIters
	if pilot <= 0 || pilot > pilotCoreIters {
		pilot = pilotCoreIters
	}
	kts := make([]*cpals.KTensor, coreRestarts)
	infos := make([]cpals.Info, coreRestarts)
	best := -1
	for attempt := range coreRestarts {
		seed := o.Seed ^ int64(attempt+1)*coreSeedMix
		akt, ainfo, err := cpals.Decompose(g, cpals.Options{
			Rank:     o.CPRank,
			MaxIters: pilot,
			Tol:      o.Tol,
			Rng:      rand.New(rand.NewSource(seed)),
			Solver:   coreSolver,
		})
		if err != nil {
			return nil, fmt.Errorf("sketch: core ALS: %w", err)
		}
		kts[attempt], infos[attempt] = akt, ainfo
		if best < 0 || ainfo.Fit > infos[best].Fit {
			best = attempt
		}
	}
	// Keep the EARLIEST attempt within a whisker of the best fit, not the
	// argmax: attempts in the same basin differ only in the last float
	// bits, and a strict argmax would let those bits (which vary with the
	// block representation, e.g. dense vs COO) flip which model wins.
	for attempt := 0; attempt < best; attempt++ {
		if infos[attempt].Fit >= infos[best].Fit-1e-6 {
			best = attempt
			break
		}
	}
	kt, info := kts[best], infos[best]
	if !info.Converged && (o.MaxIters <= 0 || o.MaxIters > pilot) {
		remaining := 0
		if o.MaxIters > 0 {
			remaining = o.MaxIters - pilot
		}
		pkt, pinfo, err := cpals.Decompose(g, cpals.Options{
			Rank:     o.CPRank,
			MaxIters: remaining,
			Tol:      o.Tol,
			Init:     phase1.FoldLambda(kt),
			Solver:   coreSolver,
		})
		if err != nil {
			return nil, fmt.Errorf("sketch: core ALS polish: %w", err)
		}
		kt = pkt
		info = pinfo
		info.Iters += pilot
	}

	folded := phase1.FoldLambda(kt)
	init := make([]*mat.Matrix, n)
	for k := range init {
		init[k] = mat.Mul(qs[k], folded[k])
		if o.Nonneg {
			for i, v := range init[k].Data {
				if v < 0 {
					init[k].Data[i] = 0
				}
			}
		}
	}
	return &Result{
		Init:      init,
		CoreDims:  coreDims,
		CoreFit:   info.Fit,
		CoreIters: info.Iters,
	}, nil
}

// rangeBases streams the blocks once and returns the per-mode
// orthonormal bases Q_n (I_n × coreDims[n]). The sketch for mode n is
// Y_n = MTTKRP(X, {Ω_k}, n) with Gaussian Ω_k — linear in X, so each
// block contributes MTTKRP(block, {row-sliced Ω_k}, n) into the rows
// [from_n, from_n+size_n) of Y_n, and blocks sharing a mode-n slab
// accumulate, in block-id order. empty reports an all-zero tensor.
func rangeBases(src phase1.Source, workers int, bufs *phase1.Buffers, s int, coreDims []int, seed int64) (qs []*mat.Matrix, empty bool, err error) {
	p := src.Pattern()
	n := len(p.Dims)
	omega := make([]*mat.Matrix, n)
	for k := range omega {
		rng := rand.New(rand.NewSource(seed ^ int64(k+1)*omegaSeedMix))
		omega[k] = mat.RandomNormal(p.Dims[k], s, rng)
	}
	ys := make([]*mat.Matrix, n)
	for k := range ys {
		ys[k] = mat.New(p.Dims[k], s)
	}
	empty = true
	// Every mode of a block is sketched against the same factor slices, so
	// the dense MTTKRPs share a worker's tensor.Sweep (two passes over the
	// block instead of n). A block's partial is each mode's contribution,
	// nil for an empty block.
	err = phase1.Stream(src, workers, nil, bufs, func() *tensor.Sweep { return new(tensor.Sweep) },
		func(sweep *tensor.Sweep, _ int, vec []int, read func() (any, error)) ([]*mat.Matrix, error) {
			block, err := readBlock(vec, read)
			if err != nil || block == nil {
				return nil, err
			}
			from, size := p.Block(vec)
			slices := make([]*mat.Matrix, n)
			for k := range slices {
				slices[k] = omega[k].SliceRows(from[k], from[k]+size[k])
			}
			dense, _ := block.(*tensor.Dense)
			sweep.Bind(dense)
			part := make([]*mat.Matrix, n)
			for mode := range part {
				part[mode] = mat.New(size[mode], s)
				if dense != nil {
					sweep.Into(part[mode], slices, mode)
				} else {
					tensor.MTTKRPSparseInto(part[mode], block.(*tensor.COO), slices, mode)
				}
			}
			return part, nil
		},
		func(_ int, vec []int, part []*mat.Matrix) {
			from, _ := p.Block(vec)
			for mode, c := range part {
				// A row-window view of Y_mode: rows are contiguous in the
				// row-major layout, so the block's contribution adds in place.
				mat.FromSlice(c.Rows, s, ys[mode].Data[from[mode]*s:][:c.Rows*s]).AddInPlace(c)
				empty = false
			}
		})
	if err != nil || empty {
		return nil, empty, err
	}
	qs = make([]*mat.Matrix, n)
	for k := range qs {
		y := ys[k]
		if coreDims[k] < s {
			// QRThin needs rows ≥ cols; keep the leading coreDims[k]
			// sketch columns (each is an independent Gaussian probe).
			y = sliceCols(y, coreDims[k])
		}
		qs[k] = mat.QRThin(y)
	}
	return qs, false, nil
}

// projectCore streams the blocks once more and returns the Tucker core
// G = X ×₁Q₁ᵀ ×₂Q₂ᵀ ... — multilinear in X, so each block contributes
// TTMChain(block, {row-sliced Q_kᵀ}) and the contributions sum, in
// block-id order.
func projectCore(src phase1.Source, workers int, bufs *phase1.Buffers, qs []*mat.Matrix, coreDims []int) (*tensor.Dense, error) {
	p := src.Pattern()
	g := tensor.NewDense(coreDims...)
	err := phase1.Stream(src, workers, nil, bufs, nil,
		func(_ struct{}, _ int, vec []int, read func() (any, error)) (*tensor.Dense, error) {
			block, err := readBlock(vec, read)
			if err != nil || block == nil {
				return nil, err
			}
			from, size := p.Block(vec)
			ms := make([]*mat.Matrix, len(qs))
			for k := range ms {
				ms[k] = qs[k].SliceRows(from[k], from[k]+size[k]).T()
			}
			if b, ok := block.(*tensor.Dense); ok {
				return tensor.TTMChain(b, ms), nil
			}
			return tensor.TTMChainSparse(block.(*tensor.COO), ms), nil
		},
		func(_ int, _ []int, c *tensor.Dense) {
			if c != nil {
				g.AddInPlace(c)
			}
		})
	return g, err
}

// readBlock reads the block at vec, returning nil for an empty one (it
// contributes nothing to either pass).
func readBlock(vec []int, read func() (any, error)) (any, error) {
	block, err := read()
	if err != nil {
		return nil, fmt.Errorf("sketch: block %v: %w", vec, err)
	}
	switch b := block.(type) {
	case *tensor.Dense:
		if !b.HasNonZero() {
			return nil, nil
		}
	case *tensor.COO:
		if b.NNZ() == 0 {
			return nil, nil
		}
	default:
		return nil, fmt.Errorf("sketch: unsupported block type %T", block)
	}
	return block, nil
}

// sliceCols returns the leading c columns of m as a copy.
func sliceCols(m *mat.Matrix, c int) *mat.Matrix {
	out := mat.New(m.Rows, c)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[:c])
	}
	return out
}
