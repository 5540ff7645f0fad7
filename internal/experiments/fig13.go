package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"twopcp/internal/buffer"
	"twopcp/internal/cpals"
	"twopcp/internal/datasets"
	"twopcp/internal/grid"
	"twopcp/internal/phase1"
	"twopcp/internal/refine"
	"twopcp/internal/schedule"
	"twopcp/internal/tensor"
)

// Figure13Config drives the accuracy experiment of Figure 13: the relative
// accuracy difference of the block-centric schedules (FO, ZO, HO) versus
// the conventional mode-centric schedule on the four datasets, across
// partition counts, with a bounded number of virtual iterations.
//
// Accuracy is 1 − ‖X−X̂‖/‖X‖ against the original tensor (paper §III-B);
// the replacement policy does not affect accuracy, only I/O, so runs use
// LRU throughout.
type Figure13Config struct {
	// Datasets to include; any of "Epinions", "Ciao", "Enron", "Face"
	// (default: all four).
	Datasets []string
	// Partitions per mode (paper: 2, 4, 8).
	Partitions []int
	// MaxVirtualIters is the iteration bound (paper: 100 for Fig 13(a),
	// 200 for Fig 13(b)).
	MaxVirtualIters int
	// Rank of the decomposition (paper: 100; default 8, scaled — see
	// DESIGN.md).
	Rank int
	// Runs is the number of repetitions whose median is reported
	// (paper: 10; default 3).
	Runs int
	// FaceScale shrinks the Face dataset (default 10 → 48×64×10).
	FaceScale int
	Seed      int64
	// IO configures the Phase-2 async prefetch pipeline (zero = sync).
	// Accuracy is independent of prefetching; this only speeds runs up.
	IO IO
}

func (c *Figure13Config) setDefaults() {
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"Epinions", "Ciao", "Enron", "Face"}
	}
	if len(c.Partitions) == 0 {
		c.Partitions = []int{2, 4, 8}
	}
	if c.MaxVirtualIters == 0 {
		c.MaxVirtualIters = 100
	}
	if c.Rank == 0 {
		c.Rank = 8
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if c.FaceScale == 0 {
		c.FaceScale = 10
	}
}

// Figure13Cell is one bar: the median relative accuracy difference (in %)
// of one block-centric schedule vs mode-centric.
type Figure13Cell struct {
	Dataset  string
	Parts    int
	Schedule schedule.Kind // FO, ZO or HO
	// RelDiffPct = 100 · (accuracy(S) − accuracy(MC)) / |accuracy(MC)|,
	// median over Runs.
	RelDiffPct float64
	// AccMC and AccS carry the median absolute accuracies for reference.
	AccMC float64
	AccS  float64
}

// Figure13Result is the full sweep.
type Figure13Result struct {
	Config Figure13Config
	Cells  []Figure13Cell
}

// fitAgainst measures model accuracy against the original data.
type fitAgainst func(kt *cpals.KTensor) float64

// loadDataset materializes a dataset and its accuracy functional.
func loadDataset(name string, rng *rand.Rand, faceScale int) (dims []int, blocks func(p *grid.Pattern) (phase1.Source, error), fit fitAgainst, err error) {
	switch name {
	case "Epinions", "Ciao", "Enron":
		var x *tensor.COO
		switch name {
		case "Epinions":
			x = datasets.Epinions(rng)
		case "Ciao":
			x = datasets.Ciao(rng)
		default:
			x = datasets.Enron(rng)
		}
		return x.Dims, func(p *grid.Pattern) (phase1.Source, error) {
				return phase1.NewCOOSource(x, p)
			}, func(kt *cpals.KTensor) float64 {
				return kt.FitSparse(x)
			}, nil
	case "Face":
		x := datasets.Face(rng, faceScale)
		return x.Dims, func(p *grid.Pattern) (phase1.Source, error) {
				return phase1.NewDenseSource(x, p)
			}, func(kt *cpals.KTensor) float64 {
				return kt.Fit(x)
			}, nil
	default:
		return nil, nil, nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// patternFor splits every mode parts ways, clamped to the mode size.
func patternFor(dims []int, parts int) *grid.Pattern {
	k := make([]int, len(dims))
	for i, d := range dims {
		k[i] = parts
		if k[i] > d {
			k[i] = d
		}
	}
	return grid.MustNew(dims, k)
}

// RunFigure13 executes the sweep.
func RunFigure13(cfg Figure13Config) (*Figure13Result, error) {
	cfg.setDefaults()
	res := &Figure13Result{Config: cfg}
	blockKinds := []schedule.Kind{schedule.FiberOrder, schedule.ZOrder, schedule.HilbertOrder}

	type key struct {
		parts int
		kind  schedule.Kind
	}
	for _, name := range cfg.Datasets {
		diffs := map[key][]float64{}
		accMC := map[int][]float64{}
		accS := map[key][]float64{}
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run)*1009
			rng := newRand(seed + int64(len(name))*7919)
			dims, mkSource, fit, err := loadDataset(name, rng, cfg.FaceScale)
			if err != nil {
				return nil, err
			}
			for _, parts := range cfg.Partitions {
				p := patternFor(dims, parts)
				src, err := mkSource(p)
				if err != nil {
					return nil, err
				}
				p1, err := phase1.Run(src, phase1.Options{
					Rank: cfg.Rank, MaxIters: 30, Tol: 1e-4, Seed: seed,
				})
				if err != nil {
					return nil, err
				}
				accOf := func(kind schedule.Kind) (float64, error) {
					r, _, err := cfg.IO.phase2(refine.Config{
						Phase1: p1, Schedule: kind, Policy: buffer.LRU,
						// Accuracy does not depend on the buffer; a full
						// buffer just avoids pointless store round trips.
						BufferFraction:  1,
						MaxVirtualIters: cfg.MaxVirtualIters,
						Tol:             1e-2, // paper §VIII-C stopping condition
						Seed:            seed,
					})
					if err != nil {
						return 0, err
					}
					return fit(cpals.NewKTensor(r.Factors)), nil
				}
				mc, err := accOf(schedule.ModeCentric)
				if err != nil {
					return nil, err
				}
				accMC[parts] = append(accMC[parts], mc)
				for _, kind := range blockKinds {
					s, err := accOf(kind)
					if err != nil {
						return nil, err
					}
					k := key{parts, kind}
					accS[k] = append(accS[k], s)
					denom := mc
					if denom < 0 {
						denom = -denom
					}
					if denom < 1e-12 {
						denom = 1e-12
					}
					diffs[k] = append(diffs[k], 100*(s-mc)/denom)
				}
			}
		}
		for _, parts := range cfg.Partitions {
			for _, kind := range blockKinds {
				k := key{parts, kind}
				res.Cells = append(res.Cells, Figure13Cell{
					Dataset: name, Parts: parts, Schedule: kind,
					RelDiffPct: median(diffs[k]),
					AccMC:      median(accMC[parts]),
					AccS:       median(accS[k]),
				})
			}
		}
	}
	return res, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Lookup returns the cell for a configuration (nil if absent).
func (r *Figure13Result) Lookup(dataset string, parts int, kind schedule.Kind) *Figure13Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Dataset == dataset && c.Parts == parts && c.Schedule == kind {
			return c
		}
	}
	return nil
}

// String renders the figure as a table: rows are dataset × partitions,
// columns are the block-centric schedules' relative accuracy difference.
func (r *Figure13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: median accuracy difference vs MC schedule (%%), max %d virtual iterations\n",
		r.Config.MaxVirtualIters)
	fmt.Fprintf(&b, "%-10s %-8s %10s %10s %10s %12s\n", "dataset", "parts", "FO", "ZO", "HO", "acc(MC)")
	for _, name := range r.Config.Datasets {
		for _, parts := range r.Config.Partitions {
			fo := r.Lookup(name, parts, schedule.FiberOrder)
			zo := r.Lookup(name, parts, schedule.ZOrder)
			ho := r.Lookup(name, parts, schedule.HilbertOrder)
			if fo == nil || zo == nil || ho == nil {
				continue
			}
			fmt.Fprintf(&b, "%-10s %-8s %+10.2f %+10.2f %+10.2f %12.4f\n",
				name, fmt.Sprintf("%dx%dx%d", parts, parts, parts),
				fo.RelDiffPct, zo.RelDiffPct, ho.RelDiffPct, fo.AccMC)
		}
	}
	return b.String()
}
