package refine

import (
	"fmt"
	"runtime"
	"sync"

	"twopcp/internal/blockstore"
	"twopcp/internal/mat"
)

// RunGridParafac executes the original mode-centric grid-PARAFAC iteration
// of Phan & Cichocki [22] that the paper's Algorithm 1 restructures: for
// each mode, ALL partitions are updated in parallel from the *current*
// (pre-pass) P and Q, and the P/Q revisions happen afterwards "using a
// separate loop for each mode to optimize for parallelism" (paper §IV,
// Observation #2). Contrast with Engine.Run, whose in-place updates let
// later partitions see earlier revisions within the same pass.
//
// The parallel pass requires every unit of the active mode to be resident
// simultaneously — the memory-hungry behaviour 2PCP's buffered, fine-
// grained scheduling removes. I/O is counted as one store read per unit per
// mode pass plus one write back, reported through Result.StoreStats;
// Result.BufferStats is zero because no buffer manager is involved.
//
// Workers bounds the per-mode parallelism (0 = GOMAXPROCS).
func RunGridParafac(cfg Config, workers int) (*Result, error) {
	if cfg.Phase1 == nil || cfg.Store == nil {
		return nil, fmt.Errorf("refine: Phase1 and Store are required")
	}
	if cfg.MaxVirtualIters <= 0 {
		cfg.MaxVirtualIters = 100
	}
	if cfg.Tol == 0 {
		cfg.Tol = 1e-2
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Reuse the engine's setup: units in the store, components seeded.
	e := &Engine{cfg: cfg, pattern: cfg.Phase1.Pattern}
	if err := e.prepareUnits(e.factorSeeder(nil)); err != nil {
		return nil, err
	}
	e.comps = newComponents(cfg.Phase1)
	e.seedComponents(e.factorSeeder(nil))

	p := e.pattern
	rank := cfg.Phase1.Rank
	res := &Result{}
	prevFit := e.comps.SurrogateFit()

	for iter := 0; iter < cfg.MaxVirtualIters; iter++ {
		for mode := 0; mode < p.NModes(); mode++ {
			// Load every unit of the mode (the [22] working set).
			units := make([]*blockstore.Unit, p.K[mode])
			for part := range units {
				u, err := cfg.Store.Get(mode, part)
				if err != nil {
					return nil, err
				}
				units[part] = u
			}
			// Parallel Jacobi-style pass: all partitions solve against the
			// same pre-pass components.
			newA := make([]*mat.Matrix, p.K[mode])
			var wg sync.WaitGroup
			sem := make(chan struct{}, workers)
			for part := range units {
				wg.Add(1)
				sem <- struct{}{}
				go func(part int) {
					defer wg.Done()
					defer func() { <-sem }()
					newA[part] = e.solvePartition(units[part], rank)
				}(part)
			}
			wg.Wait()
			// Separate revision loop: install the new factors, refresh
			// P and Q, write the A parts back.
			for part, u := range units {
				e.comps.setA(mode, part, newA[part], u.U)
				if err := cfg.Store.Put(&blockstore.Unit{Mode: mode, Part: part, A: newA[part]}); err != nil {
					return nil, err
				}
			}
		}
		res.VirtualIters++
		fit := e.comps.SurrogateFit()
		res.FitTrace = append(res.FitTrace, fit)
		improvement := fit - prevFit
		prevFit = fit
		if improvement < cfg.Tol && res.VirtualIters > 1 {
			res.Converged = true
			break
		}
	}
	res.StoreStats = cfg.Store.Stats()
	factors, err := e.AssembleFactors()
	if err != nil {
		return nil, err
	}
	res.Factors = factors
	return res, nil
}

// solvePartition computes the grid-PARAFAC least-squares solution for one
// partition without touching shared scratch (safe for concurrent use).
func (e *Engine) solvePartition(u *blockstore.Unit, rank int) *mat.Matrix {
	mode, part := u.Mode, u.Part
	_, rows := e.pattern.ModeRange(mode, part)
	t := mat.New(rows, rank)
	s := mat.New(rank, rank)
	g := mat.New(rank, rank)
	term := mat.New(rank, rank)
	vec := make([]int, e.pattern.NModes())
	for _, id := range e.pattern.Slab(mode, part) {
		e.pattern.Unlinear(id, vec)
		e.comps.gammaInto(g, id, mode)
		mat.MulAddInto(t, u.U[id], g)
		term.Fill(1)
		e.comps.sTermMulInto(term, vec, mode)
		s.AddInPlace(term)
	}
	return mat.RightSolveSPD(t, s)
}
