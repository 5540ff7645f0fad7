package refine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/obs"
	"twopcp/internal/phase1"
	"twopcp/internal/runstate"
	"twopcp/internal/schedule"
)

// ErrStopped is returned by Run when Config.Stop was closed: the engine
// finished the in-flight schedule step, wrote a checkpoint at the step
// boundary (when checkpointing is configured) and returned. A later run
// with the same Checkpointer resumes bit-exactly from that boundary.
var ErrStopped = errors.New("refine: stopped before completion")

// Config assembles a Phase-2 engine.
type Config struct {
	// Phase1 supplies the per-block sub-factors (required). New aligns a
	// copy of them (see alignBlocks) and never writes this result, so one
	// result may feed many engines.
	Phase1 *phase1.Result
	// Store receives the data units; Phase 2's I/O flows through it
	// (required). Use blockstore.NewMemStore for counted simulation or
	// NewFileStore for true out-of-core runs.
	Store blockstore.Store
	// Schedule picks the update schedule (paper §V–VI).
	Schedule schedule.Kind
	// Policy picks the buffer replacement strategy (paper §VII).
	Policy buffer.Policy
	// BufferFraction sizes the buffer as a fraction of the total space
	// requirement (paper Table III: 1/3, 1/2, 2/3). Defaults to 1
	// (everything fits).
	BufferFraction float64
	// MaxVirtualIters bounds the virtual iterations (default 100, the
	// paper's Figure 13(a) budget).
	MaxVirtualIters int
	// Tol declares convergence when the surrogate fit improves by less
	// than Tol across a virtual iteration (default 1e-2, paper §VIII-C).
	// Pass math.Inf(-1) to disable convergence and always run
	// MaxVirtualIters (used by the I/O-measurement experiments, which run
	// "without any bound on iterations").
	Tol float64
	// Seed drives the random seeding of a partition whose slab holds no
	// usable Phase-1 sub-factor (see initialA).
	Seed int64
	// PrefetchDepth is how many schedule steps ahead the engine issues
	// buffer prefetches while updating the current step, overlapping the
	// next steps' unit I/O with this step's compute. 0 (the default) keeps
	// Phase 2 fully synchronous. Update order is independent of the depth,
	// so FitTrace, the final factors and the buffer's swap statistics are
	// identical at every depth. StoreStats may count a few extra reads at
	// depth > 0 — prefetches issued for steps that never ran, or wasted
	// because the unit was evicted before its use.
	PrefetchDepth int
	// IOWorkers bounds the buffer manager's concurrent prefetch reads.
	// Defaults to 2 when PrefetchDepth > 0, else 0 (synchronous).
	// Write-backs run inline on the engine's goroutine at every setting.
	IOWorkers int
	// Solver picks the per-partition row update (nil = least squares,
	// bit-for-bit the historical path): the grid-PARAFAC rule solves
	// A(i)_(ki)·S = T, and constrained solvers replace that solve while
	// keeping T and S — and therefore the P/Q component bookkeeping and
	// SurrogateFit — unchanged. Warm-start solvers (Nonnegative) iterate
	// from the pinned unit's current A, which in Phase 2 already carries
	// the model's true scale (identity core: no λ to unfold). The update
	// stays deterministic at every worker count, prefetch depth and
	// checkpoint cadence because the solve itself is serial and the
	// engine's update order is schedule-driven.
	Solver cpals.Solver
	// Checkpoint, when non-nil, makes the refinement durable: the engine
	// checkpoints its complete mutable state at schedule-step boundaries
	// (see Checkpointer) and, when the Checkpointer already holds a
	// checkpoint, resumes from it — skipping every step up to the
	// checkpoint and replaying the rest bit-for-bit.
	Checkpoint Checkpointer
	// CheckpointEverySteps is the checkpoint cadence in schedule steps
	// (default: one full cycle; 1 checkpoints after every block position).
	CheckpointEverySteps int
	// Obs receives telemetry: phase2.step events per scheduled access,
	// phase2.iter events per virtual iteration, live fit/progress gauges,
	// and — through the buffer manager — the buffer's trace events and
	// counters. Checkpoints do not carry the registry: a resumed engine
	// adds to the counters it finds, never rewinds them. Nil disables it
	// at ~zero cost.
	Obs *obs.Observer
	// Stop, when non-nil and closed, drains the run gracefully: the
	// in-flight step finishes, a checkpoint is written at the boundary
	// (when Checkpoint is set) and Run returns ErrStopped.
	Stop <-chan struct{}
}

// Result reports a Phase-2 run.
type Result struct {
	// Factors are the assembled full factor matrices A(i), one per mode.
	Factors []*mat.Matrix
	// VirtualIters is the number of completed virtual iterations.
	VirtualIters int
	// Converged is true when Tol fired before MaxVirtualIters.
	Converged bool
	// FitTrace holds the surrogate fit after each virtual iteration.
	FitTrace []float64
	// BufferStats exposes the paper's headline metric: Fetches = swaps.
	BufferStats buffer.Stats
	// StoreStats counts store traffic (unit reads/writes incl. setup).
	StoreStats blockstore.Stats
	// SwapsPerVirtualIter = BufferStats.Fetches / VirtualIters.
	SwapsPerVirtualIter float64
}

// Engine runs Phase 2. Create with New, run once with Run.
type Engine struct {
	cfg     Config
	pattern *grid.Pattern
	sched   *schedule.Schedule
	comps   *components
	mgr     *buffer.Manager
	solver  cpals.Solver

	// Hot-loop scratch (see update). scratchGamma holds a slab's Γ_l,
	// stacked; scratchMTTKRP one rows×rank accumulator per distinct
	// partition row count.
	scratchS      *mat.Matrix
	scratchGamma  []float64
	scratchMTTKRP map[int]*mat.Matrix
	solverScratch cpals.SolverScratch

	// prog is the loop's position, advanced in place by Run: fresh from
	// New, or the checkpoint's on a resume. curA[mode][part] tracks the
	// current factor partition so a checkpoint never has to read units
	// back; the matrices are replaced, never mutated, so holding
	// references is safe. statsOffset carries a resumed run's pre-crash
	// store traffic.
	prog        runstate.Progress
	curA        [][]*mat.Matrix
	ckptEvery   int
	statsOffset blockstore.Stats

	// Telemetry handles (nil when metrics are off).
	cUpdates *obs.Counter
	gFit     *obs.Gauge
	gIters   *obs.Gauge
}

// settle fills cfg's defaults and validates every setting that can be
// judged from the pattern and the rank alone — no Phase-1 result, store or
// checkpoint needed. It returns the buffer capacity in bytes.
func (cfg *Config) settle(p *grid.Pattern, rank int) (capacity int64, err error) {
	if cfg.MaxVirtualIters <= 0 {
		cfg.MaxVirtualIters = 100
	}
	if cfg.Tol == 0 {
		cfg.Tol = 1e-2
	}
	if cfg.BufferFraction <= 0 {
		cfg.BufferFraction = 1
	}
	if cfg.PrefetchDepth > 0 && cfg.IOWorkers <= 0 {
		cfg.IOWorkers = 2
	}
	if err := cfg.Schedule.Check(); err != nil {
		return 0, err
	}
	if err := cpals.ValidateSolver(cfg.Solver); err != nil {
		return 0, fmt.Errorf("refine: %w", err)
	}
	capacity = int64(cfg.BufferFraction * float64(schedule.TotalBytes(p, rank)))
	return capacity, buffer.Config{CapacityBytes: capacity, Policy: cfg.Policy, Workers: cfg.IOWorkers, Rank: rank}.Check()
}

// Preflight reports the error New would return for cfg's schedule, policy,
// buffer sizing, I/O pool and solver on a pattern p at the given rank. It
// needs no Phase-1 result and no store, so a caller can reject bad
// settings before Phase 1 has read a single block.
func Preflight(cfg Config, p *grid.Pattern, rank int) error {
	_, err := cfg.settle(p, rank)
	return err
}

// New validates cfg, prepares the data units in the store, initializes the
// in-memory components and builds the buffer manager.
func New(cfg Config) (*Engine, error) {
	if cfg.Phase1 == nil || cfg.Store == nil {
		return nil, fmt.Errorf("refine: Phase1 and Store are required")
	}
	capacity, err := cfg.settle(cfg.Phase1.Pattern, cfg.Phase1.Rank)
	if err != nil {
		return nil, err
	}
	p := cfg.Phase1.Pattern
	e := &Engine{
		cfg:      cfg,
		pattern:  p,
		solver:   cfg.Solver,
		cUpdates: cfg.Obs.Counter("phase2.updates"),
		gFit:     cfg.Obs.Gauge("phase2.fit"),
		gIters:   cfg.Obs.Gauge("phase2.virtual_iters"),
	}
	if e.solver == nil {
		e.solver = cpals.LeastSquares{}
	}
	e.sched = schedule.New(cfg.Schedule, p)

	// A pre-existing checkpoint replaces the seeded factors wholesale; it
	// is loaded and validated before anything derives state from seeds.
	var restored *runstate.Phase2State
	if cfg.Checkpoint != nil {
		st, ok, err := cfg.Checkpoint.LoadPhase2()
		if err != nil {
			return nil, err
		}
		if ok {
			if err := e.validateState(st); err != nil {
				return nil, err
			}
			restored = st
		}
		e.ckptEvery = cfg.CheckpointEverySteps
		if e.ckptEvery <= 0 {
			e.ckptEvery = len(e.sched.Steps)
		}
	}

	e.curA = make([][]*mat.Matrix, p.NModes())
	for mode := range e.curA {
		e.curA[mode] = make([]*mat.Matrix, p.K[mode])
	}
	// Phase 2 works on an aligned copy of the blocks from here on.
	_, nonneg := e.solver.(cpals.Nonnegative)
	e.cfg.Phase1 = alignBlocks(cfg.Phase1, nonneg)
	e.comps = newComponents(e.cfg.Phase1)
	if err := e.seedUnits(restored); err != nil {
		return nil, err
	}
	// A fresh run's progress; a resume replaces it whole below.
	e.prog.PrevFit = e.comps.SurrogateFit()

	mgr, err := buffer.NewManager(buffer.Config{
		Store:         cfg.Store,
		Pattern:       p,
		CapacityBytes: capacity,
		Policy:        cfg.Policy,
		Schedule:      e.sched,
		Workers:       cfg.IOWorkers,
		Rank:          cfg.Phase1.Rank,
		Obs:           cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	e.mgr = mgr
	if restored != nil {
		if err := e.restoreFromState(restored); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	return e, nil
}

// initialA builds the seed for A(mode)_(part): the mean of the aligned
// U(mode) of the slab's blocks that have a nonzero one, the grid-PARAFAC
// practice of starting the stitching from Phase-1 output, or uniform [0,1)
// noise for a slab that has none. Alignment (alignBlocks) is what makes the
// mean meaningful: column r of every block is the same component. A slab
// with one such block gets a copy of it, bit for bit.
func (e *Engine) initialA(mode, part int, rng *rand.Rand) *mat.Matrix {
	var sum *mat.Matrix
	count := 0
	for _, id := range e.comps.slab[mode][part] {
		u := e.cfg.Phase1.Sub[id][mode]
		switch {
		case u.MaxAbs() == 0:
			continue
		case sum == nil:
			sum = u.Clone()
		default:
			sum.AddInPlace(u)
		}
		count++
	}
	if sum == nil {
		_, rows := e.pattern.ModeRange(mode, part)
		return mat.Random(rows, e.cfg.Phase1.Rank, rng)
	}
	if count > 1 {
		sum.Scale(1 / float64(count))
	}
	return sum
}

// seedUnits writes every ⟨mode, part⟩ unit into the store whole — the
// seeded (or checkpoint-restored) A(i)_(ki) plus the slab's aligned U(i)_l,
// packed once; the only time a U is written, every later Put is a
// write-back of A alone — and computes the initial P and Q from the same A
// and slab rather than reading them back. Nothing in the store is trusted
// across a restart: rewriting it here is what makes it consistent with the
// checkpoint wherever the previous process died and whatever the crash did
// to its files. The components are pure functions of the current A and the
// aligned U, itself a pure function of the Phase-1 result, which is why a
// resumed engine's P/Q state is bit-identical to the uninterrupted run's.
// The stats reset keeps set-up writes out of the swap counts.
func (e *Engine) seedUnits(restored *runstate.Phase2State) error {
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	for mode := 0; mode < e.pattern.NModes(); mode++ {
		for part := 0; part < e.pattern.K[mode]; part++ {
			u := &blockstore.Unit{Mode: mode, Part: part, U: make(map[int]*mat.Matrix)}
			if restored != nil {
				u.A = restored.A[mode][part]
			} else {
				u.A = e.initialA(mode, part, rng)
			}
			for _, id := range e.comps.slab[mode][part] {
				u.U[id] = e.cfg.Phase1.Sub[id][mode]
			}
			slab, err := blockstore.PackSlab(u)
			if err != nil {
				return err
			}
			u.U, u.Slab = nil, slab
			if err := e.cfg.Store.Put(u); err != nil {
				return err
			}
			e.comps.setA(mode, part, u.A, slab)
			e.curA[mode][part] = u.A
		}
	}
	e.cfg.Store.ResetStats()
	return nil
}

// update applies the grid-PARAFAC rule to A(mode)_(part) using the pinned
// unit, then refreshes the dependent P and Q components in place
// (Algorithm 2 step ii). Scratch matrices are reused across calls — this
// is Phase 2's hot loop, and the new A is its one allocation. The Γ_l of
// the slab are stacked in the slab's block order, so T = Σ_l U(i)_l·Γ_l is
// one product of the packed slab with the stack: per element the one
// front-to-back sum over (l, k) from zero. S is the Hadamard product of the
// other modes' Gram sums (see the package comment).
func (e *Engine) update(u *blockstore.Unit) {
	mode, part := u.Mode, u.Part
	rank := e.cfg.Phase1.Rank
	ff := rank * rank
	_, rows := e.pattern.ModeRange(mode, part)
	if e.scratchS == nil {
		e.scratchS = mat.New(rank, rank)
		e.scratchMTTKRP = make(map[int]*mat.Matrix)
	}
	t := e.scratchMTTKRP[rows]
	if t == nil {
		t = mat.New(rows, rank)
		e.scratchMTTKRP[rows] = t
	} else {
		t.Zero()
	}
	slab := e.comps.slab[mode][part]
	if len(e.scratchGamma) < len(slab)*ff {
		e.scratchGamma = make([]float64, len(slab)*ff)
	}
	gamma := e.scratchGamma[:len(slab)*ff]
	for l, id := range slab {
		// Γ_l = ⊛_{h≠i} P[l][h], the paper's P_l ⊘ (U(i)ᵀ_l A(i)_(ki)).
		hadamardInto(gamma[l*ff:(l+1)*ff], e.comps.p[id], mode)
	}
	hadamardInto(e.scratchS.Data, e.comps.gram, mode)
	mat.FibersMatMulAdd(t.Data, gamma, u.Slab.Data, len(slab)*rank, rank)
	aNew := mat.New(rows, rank)
	if e.solver.WarmStart() {
		aNew.CopyFrom(u.A)
	}
	e.solver.Solve(aNew, t, e.scratchS, &e.solverScratch)
	u.A = aNew
	e.comps.setA(mode, part, aNew, u.Slab)
	e.curA[mode][part] = aNew
}

// prefetchAhead hands the buffer manager the accesses of the next
// PrefetchDepth schedule steps as prefetch hints. pos is the engine's
// position in the cyclic access string (= the first access of step
// si+1), so the hints are exactly the units the upcoming Acquires will
// demand, in demand order. Issued after the current step's acquires and
// before its updates, the fetches overlap this step's compute.
func (e *Engine) prefetchAhead(si, pos int) {
	depth := e.cfg.PrefetchDepth
	if depth <= 0 {
		return
	}
	n := 0
	steps := len(e.sched.Steps)
	for j := 1; j <= depth; j++ {
		n += len(e.sched.Steps[(si+j)%steps].Accesses)
	}
	for _, a := range e.sched.Upcoming(pos, n) {
		e.mgr.Prefetch(a.Mode, a.Part)
	}
}

// Run executes the refinement until convergence or MaxVirtualIters and
// returns the assembled factors plus I/O statistics. Run may be called
// once; it shuts the buffer manager's I/O pipeline down on return. It
// walks the schedule's steps cyclically from e.prog, advancing it in
// place, so at every step boundary e.prog is the state a checkpoint holds.
func (e *Engine) Run() (*Result, error) {
	defer e.mgr.Close()
	res := &Result{}
	prog := &e.prog
	virtLen := e.sched.VirtualIterationLength()
	steps := len(e.sched.Steps)
	// Termination is only evaluated once every block position has been
	// visited at least once — i.e. from the second full cycle on (paper
	// Figure 7). A block-centric cycle spans many virtual iterations, and
	// a fit plateau before the first cycle completes only means the
	// not-yet-visited partitions still hold their initialization.
	minIters := int(math.Ceil(e.sched.VirtualIterationsPerCycle()))
	stepsSinceCkpt := 0
	var units []*blockstore.Unit // the step's pinned units, reused across steps
	for done := false; !done && prog.VirtualIters < e.cfg.MaxVirtualIters; {
		// Graceful drain: a close of Stop is honored at the step
		// boundary — the position the checkpoint format can represent —
		// so the state written here resumes bit-exactly.
		if e.cfg.Stop != nil {
			select {
			case <-e.cfg.Stop:
				if e.cfg.Checkpoint != nil {
					if err := e.saveCheckpoint(); err != nil {
						return nil, fmt.Errorf("%w: drain checkpoint failed: %w", ErrStopped, err)
					}
				}
				return nil, ErrStopped
			default:
			}
		}
		si := prog.NextStep
		step := &e.sched.Steps[si]
		// Acquire the step's units in schedule order.
		units = units[:0]
		for _, a := range step.Accesses {
			u, err := e.mgr.Acquire(a.Mode, a.Part)
			if err != nil {
				// A failed fetch or write-back ends the run; a resume
				// starts from the last regular checkpoint.
				return nil, err
			}
			units = append(units, u)
			if e.cfg.Obs.Tracing() {
				e.cfg.Obs.Emit("phase2.step",
					obs.Int("step", si), obs.Int("mode", a.Mode), obs.Int("part", a.Part))
			}
		}
		prog.Pos = (prog.Pos + len(step.Accesses)) % e.sched.UpdatesPerCycle()
		// Stage the next steps' units while this step computes.
		e.prefetchAhead(si, prog.Pos)
		for _, u := range units {
			if done {
				break
			}
			e.update(u)
			prog.Updates++
			e.cUpdates.Inc()
			if prog.Updates%virtLen != 0 {
				continue
			}
			prog.VirtualIters++
			fit := e.comps.SurrogateFit()
			prog.FitTrace = append(prog.FitTrace, fit)
			e.gFit.Set(fit)
			e.gIters.Set(float64(prog.VirtualIters))
			if e.cfg.Obs.Tracing() {
				e.cfg.Obs.Emit("phase2.iter",
					obs.Int("iter", prog.VirtualIters), obs.F64("fit", fit))
			}
			improvement := fit - prog.PrevFit
			prog.PrevFit = fit
			if improvement < e.cfg.Tol && prog.VirtualIters > minIters {
				res.Converged = true
				done = true
			}
			if prog.VirtualIters >= e.cfg.MaxVirtualIters {
				done = true
			}
		}
		for _, a := range step.Accesses {
			e.mgr.Release(a.Mode, a.Part, true)
		}
		prog.NextStep = (si + 1) % steps
		if done || e.cfg.Checkpoint == nil {
			continue
		}
		stepsSinceCkpt++
		if stepsSinceCkpt >= e.ckptEvery {
			if err := e.saveCheckpoint(); err != nil {
				return nil, err
			}
			stepsSinceCkpt = 0
		}
	}

	if err := e.mgr.FlushAll(); err != nil {
		return nil, err
	}
	res.VirtualIters = prog.VirtualIters
	res.FitTrace = prog.FitTrace
	res.BufferStats = e.mgr.Stats()
	res.StoreStats = e.cfg.Store.Stats()
	res.StoreStats.Add(e.statsOffset)
	if res.VirtualIters > 0 {
		res.SwapsPerVirtualIter = float64(res.BufferStats.Fetches) / float64(res.VirtualIters)
	}
	// The full factor A(i) stacks the current A(i)_(ki), which FlushAll has
	// just made the store's too.
	res.Factors = make([]*mat.Matrix, len(e.curA))
	for mode, parts := range e.curA {
		res.Factors[mode] = mat.VStack(parts...)
	}
	return res, nil
}

// SurrogateFit exposes the current surrogate fit (see components) for
// diagnostics and tests.
func (e *Engine) SurrogateFit() float64 { return e.comps.SurrogateFit() }
