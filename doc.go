// Package twopcp implements 2PCP, the two-phase, block-based CP tensor
// decomposition system of Li, Huang, Candan and Sapino (ICDE 2016), for
// dense (and sparse) tensors that are too large to decompose in memory.
//
// # Overview
//
// CP (CANDECOMP/PARAFAC) decomposition factorizes an N-mode tensor X into F
// rank-one components, X ≈ Σ_f λ_f · a_f ∘ b_f ∘ c_f. For large dense
// tensors the classic in-memory ALS blows up; 2PCP instead:
//
//  1. partitions X into a grid of sub-tensors and decomposes each block
//     independently (Phase 1, parallel), then
//  2. aligns the blocks' columns (order, sign and scale) with their
//     neighbours', seeds each factor partition with the mean of its slab,
//     and iteratively stitches the per-block sub-factors into full factor
//     matrices (Phase 2), streaming mode-partition "data units" through a
//     bounded buffer with re-use-promoting block schedules (fiber, Z-order,
//     Hilbert-order) and a forward-looking, schedule-aware replacement
//     policy that together minimize disk I/O.
//
// # Quick start
//
//	x := twopcp.RandomDense(rand.New(rand.NewSource(1)), 64, 64, 64)
//	res, err := twopcp.Decompose(x, twopcp.Options{
//		Rank:        10,
//		Partitions:  []int{2, 2, 2},
//		Schedule:    twopcp.HilbertOrder,
//		Replacement: twopcp.Forward,
//	})
//	if err != nil { ... }
//	fmt.Printf("fit=%.4f swaps/iter=%.2f\n", res.Fit, res.RunStats.SwapsPerIter)
//
// The resulting factors are in res.Model (a Kruskal tensor); res carries
// timing, convergence and I/O statistics matching the paper's evaluation
// metrics.
//
// # File formats
//
// Three binary formats cover the input side (all little-endian, detected
// by magic; cmd/tensorgen writes them, cmd/twopcp sniffs them):
//
//   - .tpdn ("TPDN"): dense — shape header (nmodes, dims), then Π dims
//     float64 values in Fortran order. Loaded fully into memory.
//   - .tpsp ("TPSP"): sparse COO — shape header, nnz, then (coords, value)
//     records. Loaded fully into memory.
//   - .tptl ("TPTL"): tiled dense — version, flags, shape header, then
//     grid-aligned tiles with a per-tile offset index, optional gzip and
//     CRC32. The out-of-core input path: DecomposeTiledFile streams Phase 1
//     and the fit computation over the tiles so peak memory is bounded by
//     one block per worker, a bounded read chunk and the Phase-2 buffer,
//     not the tensor. The spec lives in internal/tfile.
//
// Each layout shared between formats has one codec. internal/mat encodes
// every float64 payload (AppendFloats/DecodeFloats and their streaming
// pair) and every matrix record of the checkpoints and the MapReduce
// shuffle (AppendMatrix/DecodeMatrix); internal/tensor encodes the shape
// header all three formats carry (AppendShape/ReadShape). ReadShape
// bounds mode counts and dim products, and the readers check declared
// sizes against the file's actual size, before allocating, so corrupt
// files fail cleanly instead of attempting absurd allocations.
//
// # Concurrency
//
// A single Decompose call is internally parallel in three places. Every
// pass over the input (Phase 0, Phase 1, the tiled fit) works on blocks on
// Options.Workers goroutines, merged in block-id order. The dense compute
// kernels underneath (MTTKRP, Gram, GEMM) additionally parallelize over
// row panels on a shared worker pool capped by Options.KernelWorkers.
// Phase 2, which is
// strictly sequential in the paper, optionally prefetches: with
// Options.PrefetchDepth > 0 the engine issues buffer prefetches for the
// next schedule steps while updating the current one, and each admitted
// hint is one goroutine's store read, at most Options.IOWorkers at once.
// Everything else — demand fetches, the write-back of a dirty eviction,
// the final flush and factor assembly — runs inline on the engine's
// goroutine, which owns the buffer manager outright. Prefetch is
// pure data movement — every replacement decision is still taken in
// schedule order — so FitTrace, the factors and the swap counts are
// bit-for-bit identical at every depth (raw store byte counters may
// include a few wasted prefetch reads); only wall-clock time changes.
// Stores (blockstore) are safe for concurrent use with private-copy Gets
// and write-backs that are atomic when they succeed; one that fails may
// leave its unit's A torn until the retry rewrites it, which the store
// contract (internal/blockstore.Store) shows nothing can read. The buffer
// manager documents its own contract in internal/buffer. The top-level
// API itself follows the usual Go rule:
// distinct Decompose calls may run concurrently (give each its own
// StoreDir), but a single Options/Result value is not for shared mutation.
// One caveat: the kernel-parallelism cap is a single process-global value,
// so while concurrent calls requesting different KernelWorkers overlap,
// the most recently started cap applies to all of them — wall clock may
// shift, results never do (see the next section). None of this
// parallelism affects crash recovery either: a checkpointed run may be
// resumed with different Workers/KernelWorkers/PrefetchDepth/IOWorkers
// (see Durability below).
//
// # Determinism of the parallel kernels
//
// Every parallel compute kernel is constructed so its floating-point
// output is bit-identical at every worker count, including fully serial
// runs. Two rules make that hold: (1) each output region (an MTTKRP or
// GEMM output row, a Gram panel partial) is owned by exactly one worker
// invocation and accumulated in the same element order a serial sweep
// would use; (2) where a reduction is unavoidable (GramInto, TMulInto),
// rows are split into fixed-size panels — a constant, never derived from
// the worker count — and the per-panel partials are added in ascending
// panel order. Worker counts and scheduling therefore change wall-clock
// time only. The same holds for the one cache on the kernel path: ALS
// holds one contraction Y_m = X ×_m A(m) of a block with the factor it
// has just rewritten and folds the next N−1 modes from it (tensor.Sweep),
// so a sweep reads the block N/(N−1) times. Each row of Y_m is a fixed
// front-to-back sum from zero, built by one worker, and is folded in a
// fixed order, so a sweep's MTTKRPs are bit-identical at every worker
// count. Which contraction answers a mode is fixed by the order of the
// calls and the block's shape, never by the workers; on a contraction
// with m ≥ 1 the products are summed in another association than a
// standalone MTTKRP's, so the two agree to rounding, not to the bit. And
// it holds across the two implementations of the innermost loops:
// on amd64 CPUs with AVX2, internal/mat runs assembly kernels for its four
// fiber primitives (Axpy, OuterAdd, FibersMatMulAdd, FoldAdd) and for
// HadamardVec that
// vectorise across the column index with a separate multiply and add —
// never a fused one — so every lane rounds exactly as the Go loop does,
// and the bits are identical between the vector kernels and the pure-Go
// ones (the -tags purego build, and every other platform). That identity
// is what the committed golden fixtures assume, and it is a property of
// amd64: where the Go compiler itself fuses a multiply into an add
// (arm64, ppc64le, s390x) results are still identical at every worker
// count on that platform, but the goldens recorded on amd64 were never
// guaranteed there. Combined with the per-block seeding of Phase 1 and the
// depth-invariant Phase-2 pipeline, an entire run is reproducible from
// Options.Seed alone regardless of Workers, KernelWorkers, IOWorkers or
// PrefetchDepth. This contract is also what makes crash recovery exact:
// replaying the schedule from a checkpoint reproduces the uninterrupted
// run bit for bit (next section), what makes retrying failed storage
// operations invisible: a retried run computes the same bits as a
// fault-free one (see Fault tolerance below), and what makes run traces
// comparable across configurations: the telemetry layer only observes
// points this contract fixes, so traces are deterministic too (see the
// Telemetry contract below).
//
// # Solvers and constraints
//
// Options.Constraint swaps the row-block solver that both phases apply —
// the one numerical operation the two-phase architecture leaves open.
// Every mode update (Phase 1's per-block ALS sweeps, Phase 2's partition
// refinements) reduces to the normal equations A·V = M over an F×F Gram
// system; the solver decides how that system is solved:
//
//   - ConstraintNone (default): plain least squares via Cholesky with a
//     pseudo-inverse fallback. Bit-for-bit the historical behavior — the
//     solver seam adds no floating-point operation to this path.
//   - ConstraintRidge: Tikhonov damping, A = M·(V + Λ·I)⁻¹ with
//     Λ = Options.Lambda (> 0 required). Every eigenvalue of the system is
//     lifted by Λ, so the solve stays on the Cholesky fast path with
//     conditioning bounded by (λ_max+Λ)/Λ even when collinear factor
//     columns make V numerically singular.
//   - ConstraintNonneg: element-wise nonnegative factors via HALS
//     (hierarchical ALS) updates over the cached Gram system, warm-started
//     from the current factor. Cost is rows·F² per update — the same
//     order as the Cholesky solve it replaces — so MTTKRP still dominates
//     and a constrained sweep stays within 2× of an unconstrained one
//     (gated in CI by cmd/benchgate).
//
// What every solver guarantees, and tests enforce:
//
//   - Normalization: cpals folds column norms into the Kruskal weights λ
//     after every update; solver outputs are safe to normalize (nonneg
//     factors stay nonneg under positive column scaling, λ stays ≥ 0),
//     and Phase 1's λ^(1/N) folding preserves the constraint in the
//     sub-factors. Phase 2 updates factors at model scale (identity
//     core), so SurrogateFit needs no solver-specific adjustment.
//   - Determinism: solvers are serial and fixed-order, so the full
//     determinism contract (bit-identical results at every worker count,
//     kernel worker count, and prefetch depth) holds for all three modes.
//   - Resume fingerprints: the constraint name and ridge weight join the
//     checkpoint manifest fingerprint. A constrained run checkpoints and
//     resumes bit-exact (fault-injection sweeps cover all three modes),
//     and resuming with a different constraint or Lambda is refused.
//     Manifests written before solvers existed resume as ConstraintNone.
//
// # Phase-0 acceleration
//
// Options.Accelerator optionally runs a "Phase 0" ahead of Phase 1 to
// cut the cost of the cold per-block ALS — the stage that dominates a
// brute-force run on structured data:
//
//   - AccelTucker (compress-then-refine): a randomized range finder
//     streams the tensor's blocks once per mode and builds per-mode
//     orthonormal bases Q_n via a Gaussian sketch + Householder QR
//     (rank Options.Phase0Rank, default Rank, plus SketchOversample
//     extra probe columns, default 5). The tensor is projected onto the
//     small Tucker core G = X ×₁ Q₁ᵀ ×₂ Q₂ᵀ …, CP-ALS runs to
//     convergence in that compressed space (multistart pilot + polish —
//     the core is tiny, so restarts are nearly free), and the core
//     factors are expanded back as A_n = Q_n·Â_n to warm-start Phase 1.
//     Warm-started blocks then need only a short local polish: when
//     Phase1MaxIters is left at its default, the per-block sweep budget
//     drops to 3 (an explicit Phase1MaxIters overrides it). Phase 2
//     refines globally as usual.
//
// When Phase 0 cannot help it says so rather than slowing the run down:
// if the compressed core would hold at least half the tensor's cells
// (no usable low-multilinear-rank structure, or the tensor is simply
// small), AccelTucker falls back to brute force before reading a single
// block. Result.RunStats.Accelerated reports what actually happened; the CLI
// prints "accelerator: tucker (active|fell back to brute force)". CI
// holds the contract from both sides: cmd/benchgate and
// BENCH_phase0_sketch.json require the accelerated (Phase 0 + Phase 1)
// wall clock on the benchmark's low-multilinear-rank input to stay ≥ 3×
// faster than brute-force Phase 1 with the converged fits within 1e-3,
// and the tests require a structural fallback to read no block and to
// return the same bits as never asking.
//
// Acceleration changes where the iterations are spent, never the
// pipeline's contracts. Phase 0 is deterministic from Options.Seed
// (seeded sketches, blocks merged in block-id order, fixed multistart
// order), so
// accelerated runs stay bit-identical across Workers, KernelWorkers,
// IOWorkers and PrefetchDepth, and dense/tiled front-ends produce the
// same bits. The accelerator name and both knobs join the checkpoint
// manifest fingerprint — resuming with different accelerator options is
// refused — while the Phase-0 *outcome* (Accelerated, wall clock) is
// recorded in the manifest as data: a resume that lands mid-Phase-2
// skips Phase 0 entirely and still reports the original outcome. The
// nonneg constraint survives the warm start (expansion clamps, HALS
// keeps it); golden fixtures pin the accelerated numerics bit-exactly.
//
// # Durability and crash recovery
//
// Long decompositions survive crashes when Options.Checkpoint names a
// directory (CLI: -checkpoint / -resume). The directory holds a
// versioned manifest (JSON envelope with a CRC32-protected body)
// recording the run's option fingerprint and stage, plus binary
// checkpoints: an append-only log with one record per completed Phase-1
// block (sub-factors + fit), two slot files that alternate in holding the
// latest Phase-2 state (schedule position, FitTrace so far, every current
// factor partition, a buffer-manager snapshot and cumulative I/O
// statistics) and, once the run completes, the final Result.
//
// Exactly what is fsync'd when: every record carries a CRC32 that is
// checked on load, and every call that writes one returns only after the
// whole record is written, so a killed process loses nothing. The
// manifest and the Result are replaced whole — temp file, fsync, rename,
// directory fsync — a handful of times per run. The per-block and
// per-step checkpoints, hundreds per run, go into files that already
// exist, because creating a file cost more than writing its data, and
// they are group-committed: their fsync is issued once the last one is a
// second old, and everything pending is synced before the manifest
// leaves Phase 1, before the Result is installed, when the run closes
// however it ends, and when a resumed run opens the directory. A power
// loss therefore costs at most the last second of records, and each of
// those is recomputable or backed by an older synced checkpoint. A
// Phase-1 record is one append to the log, and its presence is the
// block's completion record (a crash can damage only the log's unsynced
// tail; the resume cuts it off and recomputes those blocks); a Phase-2
// checkpoint (cadence: Options.CheckpointEverySteps schedule steps,
// default one cycle) is one write over the slot that does not hold the
// newest synced checkpoint, so that checkpoint outlives any crash during
// the write and a torn or zeroed newer slot simply loads as the older
// one. A failed fsync fails the run and is never retried; if the run was
// draining, the error is the sync's rather than ErrInterrupted. The final
// Result file is installed before the manifest flips to "done". A
// directory written before this layout (manifest version 1: one file per
// block, one Phase-2 file) still returns its Result if the run had
// finished; an unfinished one is refused with an error naming both
// versions rather than restarted from nothing. The fingerprint also
// carries the stitching version (how Phase 2's start is derived from the
// Phase-1 blocks): an unfinished directory written before the blocks were
// aligned is refused as a mismatch, a finished one returns its Result.
// docs/crash-recovery.md has the layout and the argument.
//
// The Phase-2 data-unit store is scratch and needs no crash consistency:
// on resume the units are rewritten from the Phase-1 sub-factors and the
// checkpointed factors, so even the in-memory store resumes correctly. A
// FileStore's files are written in place and never synced;
// Options.StoreDir may be lost or damaged across a crash — emptied,
// truncated, garbled — and the resume is still bit-for-bit (CI destroys it
// between kill and resume). The checkpoint directory is the only durable
// state of a run.
//
// A run killed at an arbitrary point and restarted with Options.Resume
// skips completed blocks, replays Phase 2 from the last checkpoint, and
// produces bit-for-bit identical factors, FitTrace and Swaps to an
// uninterrupted run — enforced by tests that inject faults at dozens of
// interruption points (and tear the newest checkpoint at each) and by CI's
// SIGKILL crash-recovery job. The
// manifest fingerprint covers everything that changes results (shape,
// partitions, rank, schedule, replacement, buffer sizing, bounds,
// tolerances, seed); resuming with a mismatched fingerprint is refused,
// resuming a completed run returns the recorded Result without
// recomputation, and parallelism/prefetch knobs may differ between the
// original and resumed processes because results never depend on them
// (see the two sections above). Durability composes with telemetry: a
// resumed run pointed at the same trace file appends to the pre-crash
// event stream, a checkpoint.resume event marks the seam, and
// Result.RunStats carries the run's cumulative figures across the
// interruption; metric counters are not checkpointed (see the Telemetry
// contract below). Durability covers the process
// dying; storage that misbehaves while the process lives is the Fault
// tolerance contract's job (next section).
//
// # Fault tolerance
//
// Options.MaxRetries arms a resilience layer for storage that fails
// without killing the process — transient I/O errors and blocks that
// never load (CLI: -retry). Faults divide into exactly two classes
// (blockstore.IsTransient): transient (an error wrapping ErrTransient)
// and permanent (everything else), and each class has one behavior.
// There is no per-operation deadline: a read of a regular file cannot be
// cancelled cooperatively and the design refuses watchdog goroutines, so
// an operation runs until the store answers.
//
//   - Transient faults are retried, up to MaxRetries per operation,
//     with capped exponential backoff (blockstore's baseBackoff of 1 ms,
//     doubling to its maxBackoff of 100 ms) and jitter seeded by
//     Options.Seed. Both phases go through the same retry core
//     (blockstore.Retryer): Phase 2's store reads and writes via the
//     blockstore.Resilient wrapper, Phase 1's block loads and
//     checkpoint saves directly. The wrapper is one layer of the
//     Phase-2 store stack, which one function builds under one rule —
//     a layer that is off is not in the stack: base store, then the
//     chaos fault injector (Options.Chaos), then the resilience wrapper
//     (Options.MaxRetries), then instrumentation (Options.Observer),
//     closed together when Phase 2 ends however it ends. That wrapper is the
//     only layer that repeats a store operation, so MaxRetries is the
//     whole budget of a Get or Put at every PrefetchDepth and IOWorkers
//     setting. A broken prefetch degrades rather than fails: it falls
//     back to a synchronous demand fetch. A write-back that fails past
//     the store's budget is the error of the Acquire that evicted the
//     unit; the run ends and resumes from its last checkpoint. Each
//     operation gets the whole budget, however many failed before it:
//     a store that heals serves the next fetch.
//   - Permanent faults are never retried. In Phase 1 a block whose
//     load fails permanently (or exhausts its budget) is quarantined:
//     its siblings complete and checkpoint, the run fails with a typed
//     *QuarantineError naming the blocks, the CLI exits with code 4,
//     and a resume over healed storage recomputes only the quarantined
//     blocks.
//
// The invariant that makes retries safe is the same one that makes
// worker counts safe (see Determinism above): a retry can change what a
// run survives, never what it computes. Failed attempts do not count in
// Stats (Reads/Writes/Bytes count successful operations only), so
// factors, FitTrace, swap counts and store traffic are bit-identical to
// a fault-free run — scripts/chaos.sh and CI's chaos job enforce
// bit-parity at injected fault rates of 0.1% and 1%, composed with the
// SIGKILL crash-recovery scenario. Because the policy cannot change
// results it is excluded from the checkpoint manifest fingerprint: a
// resumed run may use a different retry policy (or none) than the run
// that wrote the checkpoint.
//
// Graceful drain closes the loop for operator-initiated shutdown: when
// Options.Stop is closed (the CLIs translate the first SIGTERM/SIGINT;
// a second signal kills), both phases stop at the next block or step
// boundary, write their checkpoint, and return an error wrapping
// ErrInterrupted — exit code 3 — leaving a directory that resumes
// bit-exactly.
//
// Recovery is observable, not silent: retries are counted in
// Result.RunStats.Retries and blockstore Stats, and emitted as
// store.retry trace events (schema-validated like every event; see the
// Telemetry contract below). For a single-process run, cmd/tracecheck
// -run-stats reconciles the trace's store.retry count against
// run_stats.retries exactly. The armed-but-idle layer is
// ~free: BenchmarkResilienceOverhead and BENCH_resilience.json gate it
// at ≤ 2% over the unwrapped engine in CI.
//
// # Telemetry contract
//
// Options.Observer attaches run telemetry: a structured JSONL event
// trace (Observer.Trace, a Recorder from NewRecorder or OpenTrace), a
// metrics registry of counters/gauges/histograms (Observer.Metrics,
// from NewRegistry), and/or a synchronous callback (Observer.OnEvent).
// The CLIs expose the same sinks as -trace, -metrics, -pprof and
// -progress; scalar run statistics come back in Result.RunStats either
// way. Three guarantees define the contract (internal/obs documents
// the mechanics):
//
//   - Telemetry never influences the run. No code path reads an
//     observer to make a decision, so factors, FitTrace and every
//     RunStats field are bit-identical with telemetry on, off, or
//     partially attached. This is the same determinism contract the
//     parallel kernels follow (see above), extended to observation.
//   - The trace itself is deterministic. Events are emitted only at
//     points whose occurrence is fixed by the schedule — buffer
//     replacement decisions by the manager's owning goroutine, per-block
//     Phase-1 completions, schedule steps — so the multiset of events minus
//     the wall-clock ts/dur fields is identical across Workers,
//     KernelWorkers, IOWorkers and PrefetchDepth. Operations whose
//     count legitimately varies with concurrency or timing
//     (prefetch-issued store reads, batched manifest rewrites,
//     group-committed checkpoint fsyncs) are metrics-only;
//     checkpoint.write byte counts carry real file sizes and are
//     exempt. The event catalog is a closed schema
//     (internal/obs.Schema); ValidateTraceLine and cmd/tracecheck
//     enforce it.
//   - Disabled telemetry is ~free. A nil Observer costs a nil check on
//     hot paths (subsystems bind counter handles once at setup), gated
//     in CI by BenchmarkObsOverhead and BENCH_obs.json: live counters
//     must cost ≤ 2% on the in-memory Phase-2 engine and the disabled
//     path's allocation count is pinned.
//
// Telemetry survives crashes with the run: OpenTrace appends, so a
// resumed run extends the original event stream (checkpoint.resume
// marks the boundary). The registry's counters belong to the process,
// as Prometheus counters do: monotonic for its life, from zero in the
// next. A resume adds to whatever registry it is given and never
// rewinds it — twopcpd shares one among all its jobs — while
// Result.RunStats and the -json result stay the run's exact cumulative
// record across the interruption (see Durability above).
// Recovery activity is part of the trace: store.retry events record
// every absorbed fault, and Result.RunStats.Retries reconciles with the
// trace's store.retry count via cmd/tracecheck -run-stats (see Fault
// tolerance above).
//
// # Running as a service
//
// cmd/twopcpd serves decompositions over HTTP: submit a Spec (the same
// knobs as Options, JSON-encoded), watch progress as a Server-Sent
// Events stream, download the factors as CSV. The service layer
// (internal/jobs) adds no numerics of its own — jobs run through
// DecomposeFile, so a job's factors are bit-identical to the same file
// decomposed locally — and inherits the contracts above: job records
// are fsync'd with the runstate machinery (Durability), SIGTERM drains
// every running job through Options.Stop and exits 3 (the CLI drain
// contract), permanent faults land jobs in a quarantined state (the
// exit-4 analog, Fault tolerance), and per-job event streams fan out
// through FanOut so slow watchers never block a run (Telemetry). A
// restarted daemon requeues and resumes in-flight jobs bit-exactly.
// docs/service.md is the walkthrough; docs/API.md the wire contract.
//
// # Architecture
//
// The public API wraps the internal packages: tensor (dense/sparse tensors,
// MTTKRP), cpals (in-memory ALS), grid (partitioning), sfc + schedule
// (traversal orders), blockstore + buffer (out-of-core data units and
// replacement policies), runstate (durable manifests and checkpoints),
// phase1/refine (the two phases), jobs + cli (the twopcpd service layer
// and the shared CLI plumbing) and experiments (regenerating every table
// and figure of the paper, with the MapReduce substrate and the HaTen2
// baseline of its comparison in experiments/mapreduce and
// experiments/haten2). docs/ARCHITECTURE.md
// holds the full layer map and the daemon request lifecycle; the
// walkthroughs live in docs/ and are indexed from README.md.
package twopcp
