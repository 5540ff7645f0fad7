package experiments

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"twopcp"
	"twopcp/internal/datasets"
	"twopcp/internal/runstate"
	"twopcp/internal/schedule"
)

// ConvergenceConfig drives a supplementary experiment (in the spirit of the
// paper's Figure 7): the surrogate-fit trajectory per virtual iteration for
// every schedule on the same Phase-1 output (each schedule's run recomputes
// it, bit for bit). It illustrates why virtual iterations make
// block-centric and mode-centric runs comparable — and why termination
// checks only start after the first full cycle.
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
	// ("", "ridge"+Lambda or "nonneg" — see twopcp.ParseConstraint), so
	// the schedule comparison can be rerun under constrained updates. The
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

// RunConvergence executes the trace comparison: one run of the public
// pipeline per schedule, each checkpointed into its own subdirectory
// "convergence-<kind>" of IO.Checkpoint when that is set.
func RunConvergence(cfg ConvergenceConfig) (*ConvergenceResult, error) {
	cfg.setDefaults()
	constraint, err := twopcp.ParseConstraint(cfg.Constraint)
	if err != nil {
		return nil, err
	}
	x := datasets.DenseUniform(newRand(cfg.Seed), 0.5, cfg.Side, cfg.Side, cfg.Side)
	res := &ConvergenceResult{Config: cfg, Traces: map[schedule.Kind][]float64{}}
	for _, kind := range schedule.Kinds {
		opts := cfg.IO.options(twopcp.Options{
			Rank: cfg.Rank, Partitions: []int{cfg.Parts},
			Schedule: kind, Replacement: twopcp.LRU,
			MaxIters: cfg.VirtualIters, Tol: math.Inf(-1),
			Phase1MaxIters: 10, Phase1Tol: 1e-3, Seed: cfg.Seed,
			Constraint: constraint, Lambda: cfg.Lambda,
			Stop: cfg.IO.Stop,
		})
		if cfg.IO.Checkpoint != "" {
			// The traces are independent runs, each resumable on its own.
			// Resume-or-create per subdirectory: an interrupted suite may
			// have started only some of the kinds before the crash.
			opts.Checkpoint = filepath.Join(cfg.IO.Checkpoint, "convergence-"+kind.String())
			opts.Resume = cfg.IO.Resume && runstate.HasManifest(opts.Checkpoint)
		}
		r, err := twopcp.Decompose(x, opts)
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
