package twopcp

import (
	"fmt"

	"twopcp/internal/cpals"
	"twopcp/internal/obs"
	"twopcp/internal/sketch"
)

// validateAccelOptions rejects accelerator option combinations up front,
// mirroring the constraint/Lambda validation: the tuning knobs are only
// meaningful when an accelerator is selected.
func validateAccelOptions(opts Options) error {
	switch opts.Accelerator {
	case AccelNone:
		if opts.Phase0Rank != 0 {
			return fmt.Errorf("twopcp: Phase0Rank %d is only meaningful with an accelerator", opts.Phase0Rank)
		}
		if opts.SketchOversample != 0 {
			return fmt.Errorf("twopcp: SketchOversample %d is only meaningful with an accelerator", opts.SketchOversample)
		}
	case AccelTucker:
		if opts.Phase0Rank < 0 {
			return fmt.Errorf("twopcp: Phase0Rank %d", opts.Phase0Rank)
		}
		if opts.SketchOversample < 0 {
			return fmt.Errorf("twopcp: SketchOversample %d", opts.SketchOversample)
		}
	default:
		return fmt.Errorf("twopcp: unknown accelerator %d", int(opts.Accelerator))
	}
	return nil
}

// warmPhase1MaxIters is the default per-block sweep budget when a Tucker
// warm start is installed and the caller left Phase1MaxIters at its
// default: the core solve already converged in the compressed space, so
// the block pass only adapts the expanded factors locally.
const warmPhase1MaxIters = 3

// phase0Rank resolves the per-mode Tucker basis rank: Phase0Rank when
// set, else the CP rank.
func phase0Rank(opts Options) int {
	if opts.Phase0Rank > 0 {
		return opts.Phase0Rank
	}
	return opts.Rank
}

// phase0 is the pipeline's Phase-0 stage: it computes AccelTucker's
// compress-then-refine warm start (possibly falling back to brute force)
// and installs it as the Phase-1 Init. It records in RunStats whether a
// warm start was actually installed.
//
// Phase 0 is deterministic given the options (seeded sketches, blocks
// merged in block-id order at every Workers), so a resumed run recomputes
// bit-identical warm starts — no Phase-0 state is checkpointed. The stage is not due once
// the manifest has advanced past Phase 1 (the warm start can no longer
// influence anything).
func (r *runCtx) phase0() error {
	o := sketchOptions(r.opts, r.solver)
	o.Buffers = &r.bufs
	res, err := sketch.TuckerWarmStart(r.src, o)
	if err != nil {
		return err
	}
	if res.Fallback {
		if r.ob.Tracing() {
			r.ob.Emit("phase0.sketch",
				obs.Str("accelerator", "tucker"), obs.Bool("active", false),
				obs.Str("reason", res.Reason))
		}
		return nil
	}
	if r.ob.Tracing() {
		r.ob.Emit("phase0.sketch",
			obs.Str("accelerator", "tucker"), obs.Bool("active", true),
			obs.Str("core_dims", dimsLabel(res.CoreDims)),
			obs.F64("core_fit", res.CoreFit),
			obs.Int("core_iters", res.CoreIters))
	}
	r.p1opts.Init = res.Init
	// The compress-then-refine contract: the core solve already did
	// the slow convergence work, so the standard Phase-1 pass is a
	// short polish from the warm start (Phase 2 then refines
	// globally as usual). An explicit Phase1MaxIters overrides the
	// short default — the derivation depends only on the options, so
	// resumed runs reproduce it exactly.
	if r.opts.Phase1MaxIters == 0 {
		r.p1opts.MaxIters = warmPhase1MaxIters
	}
	r.res.RunStats.Accelerated = true
	return nil
}

// sketchOptions maps the public accelerator knobs to the sketch layer.
func sketchOptions(opts Options, solver cpals.Solver) sketch.Options {
	return sketch.Options{
		Rank:       phase0Rank(opts),
		Oversample: opts.SketchOversample,
		CPRank:     opts.Rank,
		MaxIters:   corePhaseIters(opts),
		Tol:        opts.Phase1Tol,
		Seed:       opts.Seed,
		Solver:     solver,
		Nonneg:     opts.Constraint == ConstraintNonneg,
		Workers:    opts.Workers,
	}
}

// corePhaseIters bounds the core CP-ALS sweeps: the core is tiny, so it
// can afford more sweeps than a per-block ALS, but it must stay bounded
// by the caller's intent when Phase1MaxIters is explicit.
func corePhaseIters(opts Options) int {
	if opts.Phase1MaxIters > 0 {
		return opts.Phase1MaxIters
	}
	return 100
}
