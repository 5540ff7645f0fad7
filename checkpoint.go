package twopcp

import (
	"math"
	"time"

	"twopcp/internal/cpals"
	"twopcp/internal/refine"
	"twopcp/internal/runstate"
)

// openRunState opens (or resumes) the checkpoint directory's run manifest
// for the resolved pattern. The manifest's option fingerprint covers every
// field that changes the run's results; parallelism and I/O-pipeline knobs
// are excluded, so a run may be resumed with different Workers /
// KernelWorkers / PrefetchDepth / IOWorkers settings (results are
// bit-identical at every setting — see the determinism contract in the
// package documentation).
func openRunState(r *runCtx) (*runstate.Run, error) {
	opts, p := r.opts, r.pattern
	meta := runstate.Meta{
		InputKind:      r.in.kind,
		Dims:           append([]int(nil), p.Dims...),
		Partitions:     append([]int(nil), p.K...),
		Rank:           opts.Rank,
		Schedule:       opts.Schedule.String(),
		Replacement:    opts.Replacement.String(),
		BufferFraction: opts.BufferFraction,
		MaxIters:       opts.MaxIters,
		Tol:            finiteTol(opts.Tol),
		Phase1MaxIters: opts.Phase1MaxIters,
		Phase1Tol:      finiteTol(opts.Phase1Tol),
		Seed:           opts.Seed,
		Constraint:     cpals.FingerprintName(r.solver),
		Lambda:         opts.Lambda,
		// Accelerator knobs are recorded as passed (zero = default): Phase 0
		// is recomputed from them on resume, so any drift would silently
		// change the warm start — mismatches must be rejected.
		Accelerator:      opts.Accelerator.fingerprint(),
		Phase0Rank:       opts.Phase0Rank,
		SketchOversample: opts.SketchOversample,
		Stitch:           refine.StitchVersion,
	}
	return runstate.Open(opts.Checkpoint, meta, p.NumBlocks(), opts.Resume)
}

// finiteTol folds ±Inf tolerances (legal ways to disable convergence
// checks) to the finite extremes: JSON cannot carry non-finite numbers,
// and for fingerprinting purposes the fold is equivalent — no improvement
// can cross either bound.
func finiteTol(tol float64) float64 {
	if math.IsInf(tol, -1) {
		return -math.MaxFloat64
	}
	if math.IsInf(tol, 1) {
		return math.MaxFloat64
	}
	return tol
}

// resultToState is the persisted form of a completed run's Result;
// resultFromState is its inverse (the no-op resume path). A RunStats field
// added to one belongs in both.
func resultToState(res *Result) *runstate.ResultState {
	st := res.RunStats
	return &runstate.ResultState{
		Fit:           res.Fit,
		VirtualIters:  res.VirtualIters,
		Converged:     res.Converged,
		FitTrace:      res.FitTrace,
		Factors:       res.Model.Factors,
		Phase0NS:      int64(st.Phase0Time),
		Accelerated:   st.Accelerated,
		Phase1NS:      int64(st.Phase1Time),
		Phase2NS:      int64(st.Phase2Time),
		Blocks:        st.Blocks,
		Phase1Sweeps:  st.Phase1Sweeps,
		Swaps:         st.Swaps,
		SwapsPerIter:  st.SwapsPerIter,
		BufferHits:    st.BufferHits,
		BufferHitRate: st.BufferHitRate,
		Evictions:     st.Evictions,
		WriteBacks:    st.WriteBacks,
		BytesRead:     st.BytesRead,
		BytesWritten:  st.BytesWritten,
		Retries:       st.Retries,
	}
}

func resultFromState(st *runstate.ResultState) *Result {
	return &Result{
		Model:        cpals.NewKTensor(st.Factors),
		Fit:          st.Fit,
		VirtualIters: st.VirtualIters,
		Converged:    st.Converged,
		FitTrace:     st.FitTrace,
		RunStats: RunStats{
			Phase0Time:    time.Duration(st.Phase0NS),
			Accelerated:   st.Accelerated,
			Phase1Time:    time.Duration(st.Phase1NS),
			Phase2Time:    time.Duration(st.Phase2NS),
			Blocks:        st.Blocks,
			Phase1Sweeps:  st.Phase1Sweeps,
			Swaps:         st.Swaps,
			SwapsPerIter:  st.SwapsPerIter,
			BufferHits:    st.BufferHits,
			BufferHitRate: st.BufferHitRate,
			Evictions:     st.Evictions,
			WriteBacks:    st.WriteBacks,
			BytesRead:     st.BytesRead,
			BytesWritten:  st.BytesWritten,
			Retries:       st.Retries,
		},
	}
}
