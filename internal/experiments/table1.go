// Package experiments reproduces every table and figure of the paper's
// §VIII evaluation: Table I and Figure 11 (2PCP vs HaTen2 on dense
// tensors), Table II (naive CP vs 2PCP under LRU/FOR), Table III (the
// parameter grid), Figure 12 (per-virtual-iteration data swaps across
// schedules × policies × partitions × buffer sizes) and Figure 13
// (block-centric vs mode-centric accuracy on the four datasets).
//
// Absolute sizes are scaled down from the paper's billion-scale runs (see
// DESIGN.md); each Config documents the scaling and lets callers push the
// sizes back up. All runs are deterministic given their Seed.
package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"twopcp"
	"twopcp/internal/datasets"
	"twopcp/internal/experiments/haten2"
	"twopcp/internal/experiments/mapreduce"
	"twopcp/internal/tensor"
)

// Table1Config drives the strong-configuration comparison (paper Table I):
// dense cubes of growing side, density 0.2, rank 10, 2×2×2 partitioning,
// 2PCP vs HaTen2 (1 iteration, as in the paper).
type Table1Config struct {
	// Sides are the cube sides. The paper used 500/1000/1500; the default
	// scales by 1/10 to 50/100/150 (shape-preserving, see DESIGN.md).
	Sides []int
	// Density of nonzero cells (paper: 0.2).
	Density float64
	// Rank is the target decomposition rank (paper: 10).
	Rank int
	// Parts partitions each mode (paper: 2).
	Parts int
	// HaTen2MemoryBytes caps each simulated reducer; the largest side is
	// expected to exceed it, reproducing the paper's FAILS row. Default
	// sizes the cap between the second and third default workloads.
	HaTen2MemoryBytes int64
	// Reducers is the MapReduce parallelism (default 4).
	Reducers int
	Seed     int64
	// IO configures the Phase-2 async prefetch pipeline (zero = sync).
	IO IO
}

func (c *Table1Config) setDefaults() {
	if len(c.Sides) == 0 {
		c.Sides = []int{50, 100, 150}
	}
	if c.Density == 0 {
		c.Density = 0.2
	}
	if c.Rank == 0 {
		c.Rank = 10
	}
	if c.Parts == 0 {
		c.Parts = 2
	}
	if c.HaTen2MemoryBytes == 0 {
		c.HaTen2MemoryBytes = 8 << 20
	}
	if c.Reducers == 0 {
		c.Reducers = 4
	}
}

// Table1Row is one line of Table I.
type Table1Row struct {
	Side         int
	NNZ          int
	TwoPCP       time.Duration
	TwoPCPFit    float64
	HaTen2       time.Duration
	HaTen2Fit    float64
	HaTen2Failed bool
}

// Table1Result is the full table.
type Table1Result struct {
	Config Table1Config
	Rows   []Table1Row
}

// RunTable1 executes the comparison.
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	cfg.setDefaults()
	res := &Table1Result{Config: cfg}
	for i, side := range cfg.Sides {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		x := datasets.DenseUniform(rng, cfg.Density, side, side, side)
		row := Table1Row{Side: side, NNZ: x.NNZ()}

		// 2PCP through the public pipeline: Phase 1 (parallel per-block
		// ALS) + Phase 2 to convergence. Its time is the two phases' wall
		// time, without the fit.
		r, err := twopcp.Decompose(x, cfg.IO.options(twopcp.Options{
			Rank: cfg.Rank, Partitions: []int{cfg.Parts},
			Phase1MaxIters: 10, Phase1Tol: 1e-3, Seed: cfg.Seed,
			Schedule: twopcp.ZOrder, Replacement: twopcp.Forward,
			BufferFraction: 0.5, MaxIters: 20, Tol: 1e-3,
		}))
		if err != nil {
			return nil, err
		}
		row.TwoPCP = r.RunStats.Phase1Time + r.RunStats.Phase2Time
		row.TwoPCPFit = r.Fit

		// HaTen2 (1 iteration, as measured in the paper) on the same data.
		sparse := tensor.FromDense(x)
		start := time.Now()
		kt, _, err := haten2.Decompose(sparse, haten2.Options{
			Rank: cfg.Rank, MaxIters: 1, Seed: cfg.Seed,
			MR: mapreduce.Config{NumReducers: cfg.Reducers, ReducerMemoryBytes: cfg.HaTen2MemoryBytes},
		})
		row.HaTen2 = time.Since(start)
		switch {
		case errors.Is(err, haten2.ErrResources):
			row.HaTen2Failed = true
		case err != nil:
			return nil, err
		default:
			row.HaTen2Fit = kt.FitSparse(sparse)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the table in the paper's layout.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: execution times on dense tensors (density %.2g, rank %d, %d×%d×%d partitioning)\n",
		r.Config.Density, r.Config.Rank, r.Config.Parts, r.Config.Parts, r.Config.Parts)
	fmt.Fprintf(&b, "%-22s %14s %12s %14s %12s\n", "Tensor size", "2PCP (sec)", "2PCP fit", "HaTen2 (sec)", "HaTen2 fit")
	for _, row := range r.Rows {
		size := fmt.Sprintf("%d×%d×%d (%s nnz)", row.Side, row.Side, row.Side, humanCount(row.NNZ))
		h2 := fmt.Sprintf("%.3f", row.HaTen2.Seconds())
		h2fit := fmt.Sprintf("%.4f", row.HaTen2Fit)
		if row.HaTen2Failed {
			h2, h2fit = "FAILS", "-"
		}
		fmt.Fprintf(&b, "%-22s %14.3f %12.4f %14s %12s\n",
			size, row.TwoPCP.Seconds(), row.TwoPCPFit, h2, h2fit)
	}
	return b.String()
}

// Figure11Point is one point of the scaling curve (execution time vs number
// of nonzero elements, paper Figure 11 — the 2PCP rows of Table I).
type Figure11Point struct {
	NNZ     int
	Seconds float64
}

// Figure11 extracts the scaling series from a Table I run.
func Figure11(t *Table1Result) []Figure11Point {
	pts := make([]Figure11Point, len(t.Rows))
	for i, row := range t.Rows {
		pts[i] = Figure11Point{NNZ: row.NNZ, Seconds: row.TwoPCP.Seconds()}
	}
	return pts
}

// FormatFigure11 renders the series as a two-column table.
func FormatFigure11(pts []Figure11Point) string {
	var b strings.Builder
	b.WriteString("Figure 11: 2PCP execution time vs # of non-zero elements\n")
	fmt.Fprintf(&b, "%-16s %12s\n", "# non-zeros", "time (sec)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-16s %12.3f\n", humanCount(p.NNZ), p.Seconds)
	}
	return b.String()
}

func humanCount(n int) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.3gB", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.3gM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.3gK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
