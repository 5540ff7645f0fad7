package twopcp

import (
	"errors"
	"fmt"
	"time"

	"twopcp/internal/blockstore"
	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/obs"
	"twopcp/internal/par"
	"twopcp/internal/phase1"
	"twopcp/internal/refine"
	"twopcp/internal/runstate"
)

// Options configures a two-phase decomposition.
type Options struct {
	// Rank is the target CP rank F (required, positive).
	Rank int
	// Partitions gives the number of partitions per mode (the paper's
	// pattern K). A single value is broadcast to all modes; empty defaults
	// to 2 per mode. Each entry is clamped to the mode size.
	Partitions []int
	// Schedule picks the Phase-2 update schedule. The zero value is
	// ModeCentric, the paper's conventional baseline; HilbertOrder is its
	// best and what cmd/twopcp and jobs.Spec choose by default.
	Schedule Schedule
	// Replacement picks the buffer policy. The zero value is LRU; Forward
	// is the paper's best and what cmd/twopcp and jobs.Spec choose by
	// default.
	Replacement Replacement
	// BufferFraction sizes the Phase-2 buffer as a fraction of the total
	// space requirement (default 1: everything fits; the paper evaluates
	// 1/3, 1/2, 2/3).
	BufferFraction float64
	// MaxIters bounds Phase-2 virtual iterations (default 100).
	MaxIters int
	// Tol is the per-virtual-iteration fit-improvement stopping threshold
	// (default 1e-2, paper §VIII-C).
	Tol float64
	// Phase1MaxIters bounds the per-block ALS sweeps (default 50).
	Phase1MaxIters int
	// Phase1Tol is the per-block ALS tolerance (default 1e-4).
	Phase1Tol float64
	// Workers bounds Phase-1 parallelism (default GOMAXPROCS).
	Workers int
	// StoreDir, when non-empty, keeps the Phase-2 data units in files
	// under this directory (true out-of-core); otherwise an in-memory
	// store with identical semantics is used. The directory is scratch:
	// every run, resumed or not, rebuilds it before reading it, and
	// nothing in it is synced or needs to survive a crash.
	StoreDir string
	// Constraint selects the row-update solver applied by both phases:
	// ConstraintNone (the default) is plain least squares, bit-for-bit the
	// historical behavior; ConstraintRidge damps every normal-equation
	// solve with Lambda·I; ConstraintNonneg keeps every factor entry ≥ 0
	// (HALS updates over the cached Gram systems). All three are
	// bit-for-bit deterministic across worker counts and prefetch depths,
	// and the solver identity is part of the checkpoint fingerprint, so a
	// resume with a different constraint (or Lambda) is rejected. See the
	// "Solvers and constraints" section of the package documentation.
	Constraint Constraint
	// Lambda is the ridge damping weight; required (> 0, finite) with
	// ConstraintRidge and rejected with the other constraints.
	Lambda float64
	// Seed makes the whole run reproducible.
	Seed int64
	// Accelerator selects the Phase-0 acceleration strategy (default
	// AccelNone, bit-for-bit the historical pipeline). AccelTucker
	// Tucker-compresses the input via seeded randomized range finding,
	// solves CP on the core and warm-starts Phase 1 from the expanded
	// factors. It is bit-deterministic across
	// Workers/KernelWorkers/PrefetchDepth, checkpoints/resumes bit-exactly,
	// and is part of the checkpoint fingerprint (a resume with different
	// accelerator options is rejected). See the "Phase-0 acceleration"
	// section of the package documentation.
	Accelerator Accelerator
	// Phase0Rank is AccelTucker's per-mode Tucker basis rank (default:
	// Rank). Only meaningful with an accelerator.
	Phase0Rank int
	// SketchOversample adds extra Gaussian probe columns to AccelTucker's
	// range finder (default 5). Only meaningful with an accelerator.
	SketchOversample int
	// KernelWorkers caps the intra-kernel parallelism of the dense compute
	// kernels (MTTKRP, Gram and GEMM row panels) for the duration of the
	// call: 0 keeps the process default (GOMAXPROCS), 1 forces serial
	// kernels, higher values allow that many concurrent panel workers.
	// Results are bit-identical at every setting — the kernels assign each
	// output region to exactly one worker and reduce partials in fixed
	// order — so the knob only changes wall clock. The cap is one
	// process-global value while the call runs: concurrent decompositions
	// may safely overlap (the last one to finish restores the process
	// default), but while calls requesting different caps overlap, the
	// most recently started cap applies to all of them.
	KernelWorkers int
	// PrefetchDepth overlaps Phase-2 I/O with compute: the engine issues
	// buffer prefetches this many schedule steps ahead of the step it is
	// updating. 0 (the default) keeps Phase 2 fully synchronous. The
	// update order — and therefore FitTrace, the factors and the swap
	// counts (RunStats.Swaps) — is identical at every depth. Raw store
	// traffic (RunStats.BytesRead) may include a few extra reads at depth
	// > 0, from prefetches issued for steps that never ran (termination
	// mid-lookahead) or whose unit was evicted before use.
	PrefetchDepth int
	// IOWorkers sizes the Phase-2 prefetch pool (default 2 when
	// PrefetchDepth > 0, else 0). Write-backs run inline at every setting.
	IOWorkers int
	// Checkpoint, when non-empty, names a directory in which the run keeps
	// a durable, versioned manifest of its progress: every completed
	// Phase-1 block and, at schedule-step granularity, the complete
	// Phase-2 refinement state. A run killed at an arbitrary point can be
	// restarted with Resume and produces bit-for-bit identical factors,
	// FitTrace and swap counts to an uninterrupted run. See the Durability
	// section of the package documentation for exactly what is fsync'd
	// when.
	Checkpoint string
	// Resume continues the run recorded in the Checkpoint directory:
	// completed Phase-1 blocks are loaded instead of recomputed and Phase
	// 2 restarts from its latest checkpoint. The manifest's option
	// fingerprint must match this run's options (same input shape,
	// partitions, rank, schedule, replacement, buffer sizing, iteration
	// bounds, tolerances and seed — parallelism and prefetch knobs may
	// differ); resuming an already-completed run is a no-op that returns
	// the recorded Result.
	Resume bool
	// CheckpointEverySteps sets the Phase-2 checkpoint cadence in schedule
	// steps (default: one full scheduling cycle; 1 checkpoints after every
	// block position). Smaller values lose less work to a crash and cost
	// more checkpoint I/O.
	CheckpointEverySteps int
	// Observer receives the run's telemetry: structured trace events,
	// metrics and/or a synchronous event callback — see the Telemetry
	// contract in the package documentation. nil (the default) disables
	// telemetry at ~zero cost. Telemetry never influences the run:
	// results are bit-identical with any observer configuration.
	Observer *Observer
	// Retry configures the resilience layer: transient store and block
	// faults are retried with capped exponential backoff (seeded jitter),
	// and a circuit breaker trips to fail-fast after repeated permanent
	// faults. Retries never change what the run computes — factors,
	// FitTrace and the Result's I/O counters are bit-identical to a
	// fault-free run (only successful operations count). The zero value
	// disables the layer entirely. Excluded from the checkpoint
	// fingerprint: a run may be resumed with different retry settings. See
	// the "Fault tolerance" section of the package documentation.
	Retry RetryPolicy
	// Stop, when non-nil, requests a graceful drain when closed: the run
	// finishes its in-flight step, writes a checkpoint (when Checkpoint is
	// set) and returns an error wrapping ErrInterrupted. The CLIs close it
	// on SIGTERM/SIGINT.
	Stop <-chan struct{}
	// Chaos injects seeded faults for resilience testing; the zero value
	// injects nothing. Excluded from the checkpoint fingerprint. See the
	// Chaos type.
	Chaos Chaos
}

// Result reports a two-phase decomposition: the numerical outputs at the
// top level, the operational statistics (timings, I/O, buffer behavior)
// grouped under RunStats.
type Result struct {
	// Model is the assembled Kruskal tensor (unit weights; scale lives in
	// the factors, matching the grid model's identity core).
	Model *KTensor
	// Fit is 1 − ‖X−X̂‖/‖X‖ against the input tensor.
	Fit float64
	// VirtualIters counts Phase-2 virtual iterations; Converged reports
	// whether Tol fired before MaxIters.
	VirtualIters int
	Converged    bool
	// FitTrace is the Phase-2 surrogate-fit trajectory.
	FitTrace []float64
	// RunStats aggregates the run's operational statistics: per-phase
	// wall time, Phase-1 sweeps, swap counts, buffer hit rate and store
	// traffic.
	RunStats RunStats
}

// applyKernelWorkers installs the KernelWorkers cap for the duration of a
// call and returns a restore function for the caller to defer. The scoped
// push/pop cannot leak a stale cap across overlapping calls, whatever
// their completion order: popping re-applies the newest still-active cap
// and the last call to finish restores the process default.
func applyKernelWorkers(opts Options) func() {
	if opts.KernelWorkers <= 0 {
		return func() {}
	}
	token := par.PushWorkers(opts.KernelWorkers)
	return func() { par.PopWorkers(token) }
}

// input is what differs between the Decompose front-ends: how the tensor
// is named in traces and manifests, its shape, how Phase 1 reads its
// blocks under a given pattern, and how the final fit is computed.
type input struct {
	kind   string
	dims   []int
	source func(*Pattern) (phase1.Source, error)
	fit    func(*KTensor) (float64, error)
}

// Decompose runs the full 2PCP pipeline on a dense tensor.
func Decompose(x *Dense, opts Options) (*Result, error) {
	return decompose(opts, input{
		kind: "dense", dims: x.Dims,
		source: func(p *Pattern) (phase1.Source, error) { return phase1.NewDenseSource(x, p) },
		fit:    func(m *KTensor) (float64, error) { return m.Fit(x), nil },
	})
}

// DecomposeSparse runs the full 2PCP pipeline on a sparse tensor. (2PCP
// targets dense scientific tensors, but the pipeline applies unchanged;
// per-block ALS switches to sparse MTTKRP.)
func DecomposeSparse(x *COO, opts Options) (*Result, error) {
	return decompose(opts, input{
		kind: "sparse", dims: x.Dims,
		source: func(p *Pattern) (phase1.Source, error) { return phase1.NewCOOSource(x, p) },
		fit:    func(m *KTensor) (float64, error) { return m.FitSparse(x), nil },
	})
}

func patternFor(dims []int, opts Options) (*Pattern, error) {
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("twopcp: Rank must be positive, got %d", opts.Rank)
	}
	parts := opts.Partitions
	switch len(parts) {
	case 0:
		parts = make([]int, len(dims))
		for i := range parts {
			parts[i] = 2
		}
	case 1:
		v := parts[0]
		parts = make([]int, len(dims))
		for i := range parts {
			parts[i] = v
		}
	case len(dims):
		parts = append([]int(nil), parts...)
	default:
		return nil, fmt.Errorf("twopcp: %d partition counts for %d modes", len(parts), len(dims))
	}
	for i := range parts {
		if parts[i] < 1 {
			return nil, fmt.Errorf("twopcp: partition count %d on mode %d", parts[i], i)
		}
		if parts[i] > dims[i] {
			parts[i] = dims[i]
		}
	}
	return grid.New(dims, parts)
}

// runCtx is the context one decomposition's stages share: the validated
// options and everything derived from them up front, then what each stage
// leaves for the next.
type runCtx struct {
	opts    Options
	in      input
	pattern *Pattern
	solver  cpals.Solver
	ob      *Observer
	p1opts  phase1.Options
	p2cfg   refine.Config // everything but Phase1, Store and Checkpoint

	src phase1.Source
	rs  *runstate.Run // nil without Options.Checkpoint
	p1  *phase1.Result
	res *Result
	// done is set when open finds the directory already holds a finished
	// run: res is that run's Result and no later stage runs.
	done bool
}

// newRun checks every option — each rule in the layer that owns it — and
// resolves the pattern, the solver and both phases' settings. Nothing has
// been read and no directory exists yet when it returns an error.
func newRun(opts Options, in input) (*runCtx, error) {
	p, err := patternFor(in.dims, opts)
	if err != nil {
		return nil, err
	}
	if opts.Resume && opts.Checkpoint == "" {
		return nil, fmt.Errorf("twopcp: Resume requires Checkpoint to name the checkpoint directory")
	}
	if err := validateAccelOptions(opts); err != nil {
		return nil, err
	}
	solver, err := opts.Constraint.solver(opts.Lambda)
	if err != nil {
		return nil, err
	}
	r := &runCtx{opts: opts, in: in, pattern: p, solver: solver, ob: opts.Observer, res: &Result{}}
	r.res.RunStats.Blocks = p.NumBlocks()
	r.p1opts = phase1.Options{
		Rank:     opts.Rank,
		MaxIters: opts.Phase1MaxIters,
		Tol:      opts.Phase1Tol,
		Seed:     opts.Seed,
		Workers:  opts.Workers,
		Solver:   solver,
		Obs:      r.ob,
		Retry:    opts.Retry,
		Stop:     opts.Stop,
	}
	r.p2cfg = refine.Config{
		Schedule:        opts.Schedule,
		Policy:          opts.Replacement,
		BufferFraction:  opts.BufferFraction,
		MaxVirtualIters: opts.MaxIters,
		Tol:             opts.Tol,
		Seed:            opts.Seed,
		PrefetchDepth:   opts.PrefetchDepth,
		IOWorkers:       opts.IOWorkers,
		Solver:          solver,
		Obs:             r.ob,
		Stop:            opts.Stop,
	}
	return r, refine.Preflight(r.p2cfg, p, opts.Rank)
}

// stage is one step of the pipeline.
type stage struct {
	run func() error
	// due, when set, says whether the stage runs at all this attempt.
	due func() bool
	// clock, when set, is where the stage's wall time is reported.
	clock *time.Duration
}

// stages is 2PCP's fixed chain. Phase 0 only influences Phase-1 block
// decompositions, so it is due only while the manifest (if any) is still
// in Phase 1 — see open for what a later resume reports instead.
func (r *runCtx) stages() []stage {
	st := &r.res.RunStats
	return []stage{
		{run: r.open},
		{run: r.phase0, due: r.phase0Due, clock: &st.Phase0Time},
		{run: r.phase1, clock: &st.Phase1Time},
		{run: r.phase2, clock: &st.Phase2Time},
		{run: r.finish},
	}
}

// decompose is the one driver behind every front-end: validate, build the
// block source, then run the stages in order until one fails or the run
// is done. It is also the one place stage wall time is taken.
func decompose(opts Options, in input) (*Result, error) {
	defer applyKernelWorkers(opts)()
	r, err := newRun(opts, in)
	if err != nil {
		return nil, err
	}
	if r.src, err = in.source(r.pattern); err != nil {
		return nil, err
	}
	// Chaos block-read faults wrap the source before any stage sees it; the
	// injection RNG is independent of the run's numerics, so a healed run
	// is bit-identical to a fault-free one.
	if opts.Chaos.BlockRate > 0 || len(opts.Chaos.PoisonBlocks) > 0 {
		r.src = phase1.NewFaultySource(r.src, opts.Chaos.BlockRate, opts.Chaos.Seed, opts.Chaos.PoisonBlocks)
	}
	// The data every checkpoint wrote is already synced; what Close can
	// still fail at is releasing a descriptor, which changes no outcome.
	defer func() {
		if r.rs != nil {
			_ = r.rs.Close()
		}
	}()
	for _, st := range r.stages() {
		if r.done || st.due != nil && !st.due() {
			continue
		}
		start := time.Now()
		if err := st.run(); err != nil {
			return nil, err
		}
		if st.clock != nil {
			*st.clock = time.Since(start)
		}
	}
	return r.res, nil
}

// open starts the trace span, publishes the concurrency gauges and, when
// checkpointing, opens (or resumes) the manifest. A directory that already
// holds a finished run ends the pipeline here with the recorded Result.
func (r *runCtx) open() (err error) {
	if r.ob.Tracing() {
		// The concurrency knobs (Workers, KernelWorkers, PrefetchDepth,
		// IOWorkers) are deliberately absent from run.start: the trace's
		// event multiset is identical across those settings, and keeping
		// them out of the events preserves that comparability. The gauges
		// below carry them instead.
		r.ob.Emit("run.start",
			obs.Str("kind", r.in.kind),
			obs.Str("dims", dimsLabel(r.pattern.Dims)),
			obs.Int("rank", r.opts.Rank),
			obs.Bool("resumed", r.opts.Resume))
		if r.ob.Trace != nil {
			// A run killed before the recorder's buffer first fills must
			// still have left its run.start behind: a resumed run appends
			// to the same file. A write error is sticky in the recorder
			// and surfaces at its Close.
			_ = r.ob.Trace.Flush()
		}
	}
	if r.ob != nil && r.ob.Metrics != nil {
		r.ob.Gauge("run.workers").Set(float64(r.opts.Workers))
		r.ob.Gauge("run.kernel_workers").Set(float64(r.opts.KernelWorkers))
		r.ob.Gauge("run.prefetch_depth").Set(float64(r.opts.PrefetchDepth))
		r.ob.Gauge("run.io_workers").Set(float64(r.opts.IOWorkers))
	}
	if r.opts.Checkpoint == "" {
		return nil
	}
	if r.rs, err = openRunState(r); err != nil {
		return err
	}
	r.rs.SetObserver(r.ob)
	if r.opts.Resume && r.ob.Tracing() {
		r.ob.Emit("checkpoint.resume", obs.Str("stage", string(r.rs.Stage())))
	}
	if r.rs.Stage() == runstate.StageDone {
		st, err := r.rs.LoadResult()
		if err != nil {
			return err
		}
		// Copied into place: the stage clocks point into r.res.
		*r.res, r.done = *resultFromState(st), true
		emitRunDone(r.ob, r.res)
		return nil
	}
	if r.rs.Stage() != runstate.StagePhase1 {
		// Resumed past Phase 1: every block is checkpointed, so Phase 0 can
		// no longer influence anything and is skipped — report the original
		// run's recorded outcome instead of pretending the run was never
		// accelerated.
		accelerated, ns := r.rs.Phase0()
		r.res.RunStats.Accelerated, r.res.RunStats.Phase0Time = accelerated, time.Duration(ns)
	}
	return nil
}

// phase0Due reports whether the accelerator runs this attempt. Runs still
// inside Phase 1 recompute it deterministically, which reproduces the
// interrupted run's blocks bit-for-bit without any Phase-0 checkpoint
// state.
func (r *runCtx) phase0Due() bool {
	return r.opts.Accelerator != AccelNone && (r.rs == nil || r.rs.Stage() == runstate.StagePhase1)
}

// phase1 decomposes every block (loading the checkpointed ones) and flips
// the manifest to Phase 2.
func (r *runCtx) phase1() (err error) {
	if r.rs != nil {
		if r.phase0Due() {
			if err := r.rs.RecordPhase0(r.res.RunStats.Accelerated, int64(r.res.RunStats.Phase0Time)); err != nil {
				return err
			}
		}
		r.p1opts.Checkpoint = r.rs
	}
	if r.p1, err = phase1.Run(r.src, r.p1opts); err != nil {
		if errors.Is(err, phase1.ErrStopped) {
			err = fmt.Errorf("%w: drained during phase 1: %w", ErrInterrupted, err)
		}
		return err
	}
	r.res.RunStats.Retries = r.p1.Retries
	r.res.RunStats.Phase1Sweeps = r.p1.TotalSweeps()
	if r.rs != nil {
		return r.rs.BeginPhase2()
	}
	return nil
}

// storeStack builds the Phase-2 store, inside out: base store → chaos
// fault injector (testing only) → resilience wrapper (retries, breaker) →
// instrumentation. One rule: a layer that is off is not in the stack. The
// resilience layer sits below instrumentation so the Reads/Writes/Bytes
// counters record only successful operations — that is what keeps a
// healed run's Result bit-identical to a fault-free run's.
// Closing the returned store closes the base store.
func storeStack(opts Options) (blockstore.Store, error) {
	var store blockstore.Store = blockstore.NewMemStore()
	if opts.StoreDir != "" {
		fs, err := blockstore.NewFileStore(opts.StoreDir)
		if err != nil {
			return nil, err
		}
		store = fs
	}
	if opts.Chaos.storeFaults() {
		faulty := blockstore.NewFaultyStore(store)
		faulty.SetPlan(blockstore.FaultPlan{
			Seed:      opts.Chaos.Seed,
			ReadRate:  opts.Chaos.ReadRate,
			WriteRate: opts.Chaos.WriteRate,
		})
		store = faulty
	}
	if opts.Retry.Enabled() {
		store = blockstore.Resilient(store, opts.Retry, opts.Observer)
	}
	if opts.Observer != nil {
		store = blockstore.Instrument(store, opts.Observer)
	}
	return store, nil
}

// phase2 refines the Phase-1 sub-factors into the full factors through the
// buffered store, which it owns: built here, closed on every way out.
func (r *runCtx) phase2() (err error) {
	store, err := storeStack(r.opts)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}()
	cfg := r.p2cfg
	cfg.Phase1, cfg.Store = r.p1, store
	if r.rs != nil {
		cfg.Checkpoint = r.rs
		cfg.CheckpointEverySteps = r.opts.CheckpointEverySteps
	}
	eng, err := refine.New(cfg)
	if err != nil {
		return err
	}
	out, err := eng.Run()
	if err != nil {
		if errors.Is(err, refine.ErrStopped) {
			err = fmt.Errorf("%w: drained during phase 2: %w", ErrInterrupted, err)
		}
		return err
	}
	r.res.Model = cpals.NewKTensor(out.Factors)
	r.res.VirtualIters = out.VirtualIters
	r.res.Converged = out.Converged
	r.res.FitTrace = out.FitTrace
	st := &r.res.RunStats
	st.addPhase2(out)
	if r.ob != nil && r.ob.Metrics != nil {
		// Final authoritative gauges mirroring Result.RunStats: the raw
		// blockstore counters are monotonic and include setup seeding
		// (and, on resume, re-seeding), so these gauges are where the
		// snapshot matches the Result's Phase-2-only accounting exactly.
		r.ob.Gauge("run.swaps").Set(float64(st.Swaps))
		r.ob.Gauge("run.buffer_hit_rate").Set(st.BufferHitRate)
		r.ob.Gauge("run.bytes_read").Set(float64(st.BytesRead))
		r.ob.Gauge("run.bytes_written").Set(float64(st.BytesWritten))
	}
	return nil
}

// addPhase2 folds the refinement's buffer and store statistics into st.
// Retries accumulates: Phase 1 has already counted its own.
func (st *RunStats) addPhase2(out *refine.Result) {
	st.Swaps = out.BufferStats.Fetches
	st.SwapsPerIter = out.SwapsPerVirtualIter
	st.BufferHits = out.BufferStats.Hits
	if tot := out.BufferStats.Hits + out.BufferStats.Fetches; tot > 0 {
		st.BufferHitRate = float64(out.BufferStats.Hits) / float64(tot)
	}
	st.Evictions = out.BufferStats.Evictions
	st.WriteBacks = out.BufferStats.WriteBacks
	st.BytesRead = out.StoreStats.BytesRead
	st.BytesWritten = out.StoreStats.BytesWritten
	st.Retries += out.StoreStats.Retries
}

// finish computes the fit against the input and, when checkpointing,
// records the Result: once SaveResult succeeds, resuming the directory is
// a no-op that returns it.
func (r *runCtx) finish() (err error) {
	if r.res.Fit, err = r.in.fit(r.res.Model); err != nil {
		return err
	}
	defer emitRunDone(r.ob, r.res)
	if r.rs == nil {
		return nil
	}
	return r.rs.SaveResult(resultToState(r.res))
}

// dimsLabel renders mode sizes as "I0xI1x...": a single stable string
// field beats one event field per mode for schema purposes.
func dimsLabel(dims []int) string {
	s := ""
	for i, d := range dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprintf("%d", d)
	}
	return s
}

// emitRunDone closes the run's trace span. It fires once per completed
// run — including the no-op resume of an already finished checkpoint
// directory, so a trace file spanning crash and resume ends with exactly
// one run.done per attempt that reached a result.
func emitRunDone(ob *obs.Observer, res *Result) {
	if !ob.Tracing() {
		return
	}
	ob.Emit("run.done",
		obs.F64("fit", res.Fit),
		obs.Int("virtual_iters", res.VirtualIters),
		obs.Bool("converged", res.Converged))
}
