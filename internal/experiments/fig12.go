package experiments

import (
	"fmt"
	"math"
	"strings"

	"twopcp/internal/buffer"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/phase1"
	"twopcp/internal/refine"
	"twopcp/internal/schedule"
)

// Figure12Config drives the I/O experiment of Figure 12: per-virtual-
// iteration data swaps for every schedule × replacement policy across
// partition counts and buffer sizes. As the paper notes (§VIII-C.1), the
// swap count is not a function of the data — only of the partition pattern
// and the buffer size relative to the total space requirement — so the
// runs use small synthetic sub-factors and the numbers transfer to any
// tensor with the same pattern.
type Figure12Config struct {
	// Partitions per mode (paper: 2, 4, 8 → 2×2×2, 4×4×4, 8×8×8).
	Partitions []int
	// BufferFractions of the total space requirement (paper: 1/3, 1/2, 2/3).
	BufferFractions []float64
	// Rank of the synthetic sub-factors (irrelevant to the counts as all
	// units scale together; default 4).
	Rank int
	// MeasuredCycles sets how many full block cycles are measured after a
	// one-cycle warm-up (default 2).
	MeasuredCycles int
	// NModes is the tensor order (default 3, the paper's setting; the
	// formalism — and this sweep — is N-mode generic).
	NModes int
	Seed   int64
	// IO configures the Phase-2 async prefetch pipeline (zero = sync).
	// The swap counts this figure reports are identical either way.
	IO IO
}

func (c *Figure12Config) setDefaults() {
	if len(c.Partitions) == 0 {
		c.Partitions = []int{2, 4, 8}
	}
	if len(c.BufferFractions) == 0 {
		c.BufferFractions = []float64{1.0 / 3, 1.0 / 2, 2.0 / 3}
	}
	if c.Rank == 0 {
		c.Rank = 4
	}
	if c.MeasuredCycles == 0 {
		c.MeasuredCycles = 2
	}
	if c.NModes == 0 {
		c.NModes = 3
	}
}

// Figure12Cell is one bar of Figure 12.
type Figure12Cell struct {
	Parts    int
	Fraction float64
	Schedule schedule.Kind
	Policy   buffer.Policy
	Swaps    float64 // data swaps per virtual iteration, steady state
}

// Figure12Result is the full sweep.
type Figure12Result struct {
	Config Figure12Config
	Cells  []Figure12Cell
}

// syntheticPhase1 builds a Phase-1 result with random sub-factors for an
// nModes-cube partitioned parts ways per mode — sufficient for swap
// counting, which is data-independent.
func syntheticPhase1(nModes, parts, rank int, seed int64) *phase1.Result {
	dim := 4 * parts // uniform blocks of 4 rows per mode
	p := grid.UniformCube(nModes, dim, parts)
	rng := newRand(seed)
	res := &phase1.Result{Pattern: p, Rank: rank}
	res.Sub = make([][]*mat.Matrix, p.NumBlocks())
	res.Fits = make([]float64, p.NumBlocks())
	for id := range res.Sub {
		res.Sub[id] = make([]*mat.Matrix, nModes)
		for m := 0; m < nModes; m++ {
			res.Sub[id][m] = mat.Random(4, rank, rng)
		}
	}
	return res
}

// RunFigure12 executes the sweep.
func RunFigure12(cfg Figure12Config) (*Figure12Result, error) {
	cfg.setDefaults()
	res := &Figure12Result{Config: cfg}
	for _, parts := range cfg.Partitions {
		p1 := syntheticPhase1(cfg.NModes, parts, cfg.Rank, cfg.Seed)
		for _, frac := range cfg.BufferFractions {
			for _, kind := range schedule.Kinds {
				sched := schedule.New(kind, p1.Pattern)
				// Warm up one full cycle, then measure MeasuredCycles.
				warmup := int(math.Ceil(sched.VirtualIterationsPerCycle()))
				measured := warmup * cfg.MeasuredCycles
				for _, pol := range buffer.Policies {
					// The swap count only grows and a run that stops after
					// the warm-up has swapped exactly what the warm-up did,
					// so the steady state is the difference of two runs.
					fetches := func(iters int) (int64, error) {
						r, _, err := cfg.IO.phase2(refine.Config{
							Phase1: p1, Schedule: kind, Policy: pol,
							BufferFraction:  frac,
							MaxVirtualIters: iters,
							Tol:             math.Inf(-1),
						})
						if err != nil {
							return 0, err
						}
						return r.BufferStats.Fetches, nil
					}
					cold, err := fetches(warmup)
					if err != nil {
						return nil, err
					}
					total, err := fetches(warmup + measured)
					if err != nil {
						return nil, err
					}
					res.Cells = append(res.Cells, Figure12Cell{
						Parts: parts, Fraction: frac,
						Schedule: kind, Policy: pol,
						Swaps: float64(total-cold) / float64(measured),
					})
				}
			}
		}
	}
	return res, nil
}

// Lookup returns the cell for a configuration (nil if absent).
func (r *Figure12Result) Lookup(parts int, frac float64, kind schedule.Kind, pol buffer.Policy) *Figure12Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Parts == parts && math.Abs(c.Fraction-frac) < 1e-9 && c.Schedule == kind && c.Policy == pol {
			return c
		}
	}
	return nil
}

// String renders the figure as one table per buffer fraction, with the
// paper's bar groups as rows (schedule) and series as columns (policy).
func (r *Figure12Result) String() string {
	var b strings.Builder
	for _, frac := range r.Config.BufferFractions {
		fmt.Fprintf(&b, "Figure 12: per-virtual-iteration data swaps (buffer = %.2g × total requirement)\n", frac)
		fmt.Fprintf(&b, "%-10s %-6s %10s %10s %10s\n", "partitions", "sched", "LRU", "MRU", "FOR")
		for _, parts := range r.Config.Partitions {
			for _, kind := range schedule.Kinds {
				lru := r.Lookup(parts, frac, kind, buffer.LRU)
				mru := r.Lookup(parts, frac, kind, buffer.MRU)
				forw := r.Lookup(parts, frac, kind, buffer.Forward)
				if lru == nil || mru == nil || forw == nil {
					continue
				}
				fmt.Fprintf(&b, "%-10s %-6s %10.2f %10.2f %10.2f\n",
					fmt.Sprintf("%dx%dx%d", parts, parts, parts), kind,
					lru.Swaps, mru.Swaps, forw.Swaps)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
