package experiments

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/cpals"
	"twopcp/internal/datasets"
	"twopcp/internal/grid"
	"twopcp/internal/phase1"
	"twopcp/internal/refine"
	"twopcp/internal/runstate"
	"twopcp/internal/schedule"
)

// ConvergenceConfig drives a supplementary experiment (in the spirit of the
// paper's Figure 7): the surrogate-fit trajectory per virtual iteration for
// every schedule on the same Phase-1 output. It illustrates why virtual
// iterations make block-centric and mode-centric runs comparable — and why
// termination checks only start after the first full cycle.
type ConvergenceConfig struct {
	// Side of the dense cube (default 32).
	Side int
	// Parts per mode (default 4).
	Parts int
	// Rank (default 8).
	Rank int
	// VirtualIters to trace (default 40).
	VirtualIters int
	Seed         int64
	// Constraint and Lambda pick the row-update solver for both phases
	// ("", "ridge"+Lambda or "nonneg" — see cpals.NewSolver), so the
	// schedule comparison can be rerun under constrained updates. The
	// solver identity joins the per-schedule checkpoint fingerprints.
	Constraint string
	Lambda     float64
	// IO configures the Phase-2 async prefetch pipeline (zero = sync).
	// The traces are identical either way.
	IO IO
}

func (c *ConvergenceConfig) setDefaults() {
	if c.Side == 0 {
		c.Side = 32
	}
	if c.Parts == 0 {
		c.Parts = 4
	}
	if c.Rank == 0 {
		c.Rank = 8
	}
	if c.VirtualIters == 0 {
		c.VirtualIters = 40
	}
}

// ConvergenceResult holds one fit trace per schedule.
type ConvergenceResult struct {
	Config ConvergenceConfig
	Traces map[schedule.Kind][]float64
}

// RunConvergence executes the trace comparison.
func RunConvergence(cfg ConvergenceConfig) (*ConvergenceResult, error) {
	cfg.setDefaults()
	solver, err := cpals.NewSolver(cfg.Constraint, cfg.Lambda)
	if err != nil {
		return nil, err
	}
	// Canonical fingerprint name (shared with the twopcp checkpoint
	// layer): "" for least squares whatever spelling the caller used, so
	// checkpoints match across "", "none" and "ls".
	fpConstraint := cpals.FingerprintName(solver)
	rng := newRand(cfg.Seed)
	x := datasets.DenseUniform(rng, 0.5, cfg.Side, cfg.Side, cfg.Side)
	p := grid.UniformCube(3, cfg.Side, cfg.Parts)
	src, err := phase1.NewDenseSource(x, p)
	if err != nil {
		return nil, err
	}
	p1, err := phase1.Run(src, phase1.Options{
		Rank: cfg.Rank, MaxIters: 10, Tol: 1e-3, Seed: cfg.Seed, Solver: solver,
	})
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{Config: cfg, Traces: map[schedule.Kind][]float64{}}
	for _, kind := range schedule.Kinds {
		ecfg := refine.Config{
			Phase1: p1, Store: blockstore.NewMemStore(),
			Schedule: kind, Policy: buffer.LRU,
			MaxVirtualIters: cfg.VirtualIters,
			Tol:             math.Inf(-1),
			PrefetchDepth:   cfg.IO.PrefetchDepth,
			IOWorkers:       cfg.IO.IOWorkers,
			Obs:             cfg.IO.Observer,
			Solver:          solver,
			Stop:            cfg.IO.Stop,
		}
		var rs *runstate.Run
		if cfg.IO.Checkpoint != "" {
			// One checkpoint subdirectory per schedule: the traces are
			// independent runs, each resumable on its own. Resume-or-create
			// per subdirectory — an interrupted suite may have started only
			// some of the kinds before the crash.
			sub := filepath.Join(cfg.IO.Checkpoint, "convergence-"+kind.String())
			var err error
			rs, err = runstate.Open(
				sub,
				runstate.Meta{
					InputKind: "dense", Dims: p.Dims, Partitions: p.K,
					Rank: cfg.Rank, Schedule: kind.String(), Replacement: buffer.LRU.String(),
					// JSON cannot carry -Inf; the finite minimum is an
					// equivalent fingerprint for "convergence disabled".
					MaxIters: cfg.VirtualIters, Tol: -math.MaxFloat64, Seed: cfg.Seed,
					Constraint: fpConstraint, Lambda: cfg.Lambda,
				},
				p.NumBlocks(), cfg.IO.Resume && runstate.HasManifest(sub))
			if err != nil {
				return nil, err
			}
			defer rs.Close() // on the error paths before Run
			ecfg.Checkpoint = rs
		}
		eng, err := refine.New(ecfg)
		if err != nil {
			return nil, err
		}
		r, err := eng.Run()
		if rs != nil {
			// Close carries the last checkpoint sync.
			err = errors.Join(err, rs.Close())
		}
		if err != nil {
			return nil, err
		}
		res.Traces[kind] = r.FitTrace
	}
	return res, nil
}

// String renders the traces side by side, one row per virtual iteration.
func (r *ConvergenceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Convergence: surrogate fit per virtual iteration (side %d, %d×%d×%d, rank %d)\n",
		r.Config.Side, r.Config.Parts, r.Config.Parts, r.Config.Parts, r.Config.Rank)
	fmt.Fprintf(&b, "%-6s %10s %10s %10s %10s\n", "iter", "MC", "FO", "ZO", "HO")
	n := 0
	for _, tr := range r.Traces {
		if len(tr) > n {
			n = len(tr)
		}
	}
	at := func(kind schedule.Kind, i int) string {
		tr := r.Traces[kind]
		if i >= len(tr) {
			return "-"
		}
		return fmt.Sprintf("%.4f", tr[i])
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%-6d %10s %10s %10s %10s\n", i+1,
			at(schedule.ModeCentric, i), at(schedule.FiberOrder, i),
			at(schedule.ZOrder, i), at(schedule.HilbertOrder, i))
	}
	return b.String()
}
