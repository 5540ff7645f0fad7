// Package jobs is the decomposition-as-a-service layer: a durable job
// store, a worker-pool manager that runs submitted decompositions through
// the same twopcp entry points as the CLI, and the HTTP/JSON API the
// twopcpd daemon serves.
//
// The design inherits every contract the library already makes and adds
// none of its own numerics:
//
//   - Durability: each job owns a directory with an fsync'd job record
//     (written with the same atomic install as run manifests) and its own
//     checkpoint directory, so a daemon crash or drain loses at most the
//     work since the last checkpoint and a restarted daemon resumes
//     in-flight jobs bit-exactly.
//   - Determinism: jobs run through twopcp.DecomposeFile with options
//     built from the submitted Spec, so a job's factors are bit-identical
//     to the same file decomposed locally with the same flags.
//   - Graceful drain: Manager.Drain closes every running job's stop
//     channel, exactly like the CLI's SIGTERM handler; the jobs land in
//     StateInterrupted with a fresh checkpoint and are requeued on the
//     next daemon start.
//   - Telemetry: each job's event stream feeds a per-job fan-out that the
//     SSE endpoint subscribes to; publishing never blocks the run.
package jobs

import (
	"fmt"
	"time"

	"twopcp"
	"twopcp/internal/buffer"
	"twopcp/internal/schedule"
)

// State is a job's lifecycle state. Transitions:
//
//	queued → running → done | failed | canceled | interrupted | quarantined
//
// interrupted (drain) and running (daemon crash) jobs are requeued on
// daemon start; canceled, failed and quarantined jobs stay put until an
// explicit resume request requeues them.
type State string

// The job lifecycle states.
const (
	// StateQueued: accepted and waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is decomposing the input right now.
	StateRunning State = "running"
	// StateDone: finished; result summary and factor CSVs are available.
	StateDone State = "done"
	// StateFailed: the run returned a hard error (recorded in Job.Error).
	StateFailed State = "failed"
	// StateCanceled: stopped by an explicit cancel request after writing a
	// checkpoint; a resume request picks up where it left off.
	StateCanceled State = "canceled"
	// StateInterrupted: stopped by a daemon drain (SIGTERM) after writing
	// a checkpoint — the service analog of CLI exit code 3. Requeued
	// automatically on the next daemon start.
	StateInterrupted State = "interrupted"
	// StateQuarantined: Phase-1 blocks exhausted the retry budget on a
	// permanent fault — the service analog of CLI exit code 4. The rest of
	// the run is checkpointed; a resume request recomputes only the
	// quarantined blocks.
	StateQuarantined State = "quarantined"
)

// Terminal reports whether the state is a resting state (no worker owns
// the job and none will without an external trigger).
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateInterrupted, StateQuarantined:
		return true
	}
	return false
}

// known reports whether s is one of the states above.
func (s State) known() bool {
	return s == StateQueued || s == StateRunning || s.Terminal()
}

// Spec is a run's configuration: the tensor input plus the knobs of the
// paper's experiment grid. The daemon takes it JSON-encoded in submit
// requests and persists it verbatim in the job record; the twopcp CLI
// binds one flag to each field and builds its local runs through the same
// Options. The zero value of every optional field selects the default
// (applied by normalize, so the persisted spec records the effective
// configuration).
type Spec struct {
	// Input is the tensor file path on the daemon host (.tpdn, .tpsp or
	// .tptl, detected by magic). Upload submissions leave it empty; the
	// store fills it with the job-local copy.
	Input string `json:"input,omitempty"`
	// Rank is the decomposition rank F (required, > 0).
	Rank int `json:"rank"`
	// Parts is the partition count per mode, the paper's K (default 2).
	Parts int `json:"parts,omitempty"`
	// Schedule is the Phase-2 update schedule: MC, FO, ZO or HO
	// (default HO).
	Schedule string `json:"schedule,omitempty"`
	// Replacement is the buffer replacement policy: LRU, MRU or FOR
	// (default FOR).
	Replacement string `json:"replacement,omitempty"`
	// BufferFraction sizes the Phase-2 buffer as a fraction of the total
	// space requirement (default 1.0).
	BufferFraction float64 `json:"buffer,omitempty"`
	// MaxIters caps Phase-2 virtual iterations (default 100).
	MaxIters int `json:"iters,omitempty"`
	// Tol is the fit-improvement stopping threshold (default 1e-2).
	Tol float64 `json:"tol,omitempty"`
	// Workers bounds the blocks each pass reads at once (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// KernelWorkers is the intra-kernel parallelism (0 = GOMAXPROCS).
	KernelWorkers int `json:"kernel_workers,omitempty"`
	// PrefetchDepth is the Phase-2 prefetch depth in schedule steps.
	PrefetchDepth int `json:"prefetch,omitempty"`
	// IOWorkers bounds the Phase-2 prefetch reads in flight (0 = auto).
	IOWorkers int `json:"io_workers,omitempty"`
	// OutOfCore keeps Phase-2 data units on disk in the job directory
	// instead of in memory.
	OutOfCore bool `json:"out_of_core,omitempty"`
	// Constraint selects the row-update solver: none, ridge or nonneg.
	Constraint string `json:"constraint,omitempty"`
	// Lambda is the ridge damping weight (required > 0 with ridge).
	Lambda float64 `json:"lambda,omitempty"`
	// Accelerator selects Phase-0 acceleration: none or tucker.
	Accelerator string `json:"accelerator,omitempty"`
	// Phase0Rank is the per-mode Tucker basis rank (0 = Rank).
	Phase0Rank int `json:"phase0_rank,omitempty"`
	// SketchOversample adds Gaussian probe columns to the range finder.
	SketchOversample int `json:"sketch_oversample,omitempty"`
	// Seed is the random seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// CheckpointEverySteps is the Phase-2 checkpoint cadence in schedule
	// steps (0 = once per scheduling cycle).
	CheckpointEverySteps int `json:"checkpoint_steps,omitempty"`
	// MaxRetries is the transient-fault retry budget per operation
	// (0 = resilience layer off).
	MaxRetries int `json:"retry,omitempty"`
}

// normalize fills defaulted fields in place so the persisted record shows
// the effective configuration — and so the checkpoint option fingerprint
// is stable however sparsely the submitter wrote the spec.
func (s *Spec) normalize() {
	if s.Parts == 0 {
		s.Parts = 2
	}
	if s.Schedule == "" {
		s.Schedule = "HO"
	}
	if s.Replacement == "" {
		s.Replacement = "FOR"
	}
	if s.BufferFraction == 0 {
		s.BufferFraction = 1.0
	}
	if s.MaxIters == 0 {
		s.MaxIters = 100
	}
	if s.Tol == 0 {
		s.Tol = 1e-2
	}
	if s.Constraint == "" {
		s.Constraint = "none"
	}
	if s.Accelerator == "" {
		s.Accelerator = "none"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// DefaultSpec returns what every omitted optional field stands for: the
// zero Spec, normalized. Rank is required and has no default. The twopcp
// CLI reads its flag defaults from here, so the defaults live in one
// place.
func DefaultSpec() Spec {
	var s Spec
	s.normalize()
	return s
}

// SpecError is a spec refused before any run: a submission body that does
// not decode as a Spec, or a field no run can take. The API answers it with
// 400.
type SpecError struct{ Err error }

// Error is the refused field's or decoder's message.
func (e *SpecError) Error() string { return e.Err.Error() }

// Unwrap returns the error that refused the spec.
func (e *SpecError) Unwrap() error { return e.Err }

// Options normalizes the spec in place and translates it into
// twopcp.Options, with the run's checkpoint directory (and, with
// OutOfCore, its store directory) wired in. It is the one point where a
// run's configuration is assembled, for a daemon job and a local CLI run
// alike, which is what makes the two bit-identical: same parser for every
// enum, same defaults, same Options fields. A field it refuses is a
// *SpecError.
func (s *Spec) Options(ckptDir, storeDir string, resume bool) (twopcp.Options, error) {
	s.normalize()
	var opts twopcp.Options
	if s.Rank <= 0 {
		return opts, &SpecError{fmt.Errorf("jobs: rank must be > 0 (got %d)", s.Rank)}
	}
	kind, err := schedule.ParseKind(s.Schedule)
	if err != nil {
		return opts, &SpecError{err}
	}
	pol, err := buffer.ParsePolicy(s.Replacement)
	if err != nil {
		return opts, &SpecError{err}
	}
	constraint, err := twopcp.ParseConstraint(s.Constraint)
	if err != nil {
		return opts, &SpecError{err}
	}
	accel, err := twopcp.ParseAccelerator(s.Accelerator)
	if err != nil {
		return opts, &SpecError{err}
	}
	opts = twopcp.Options{
		Rank:                 s.Rank,
		Partitions:           []int{s.Parts},
		Schedule:             kind,
		Replacement:          pol,
		BufferFraction:       s.BufferFraction,
		MaxIters:             s.MaxIters,
		Tol:                  s.Tol,
		Workers:              s.Workers,
		KernelWorkers:        s.KernelWorkers,
		PrefetchDepth:        s.PrefetchDepth,
		IOWorkers:            s.IOWorkers,
		Constraint:           constraint,
		Lambda:               s.Lambda,
		Accelerator:          accel,
		Phase0Rank:           s.Phase0Rank,
		SketchOversample:     s.SketchOversample,
		Seed:                 s.Seed,
		Checkpoint:           ckptDir,
		Resume:               resume,
		CheckpointEverySteps: s.CheckpointEverySteps,
		MaxRetries:           s.MaxRetries,
	}
	if s.OutOfCore {
		opts.StoreDir = storeDir
	}
	return opts, nil
}

// Summary is a run's numerical outcome, minus the factors themselves
// (those are downloaded as CSV). The CLI's -json output is this plus the
// tensor's dims. The integration tests DeepEqual this against an
// uninterrupted local run after stripping wall-clock fields.
type Summary struct {
	// Fit is 1 − ‖X−X̂‖/‖X‖ against the input tensor.
	Fit float64 `json:"fit"`
	// VirtualIters counts Phase-2 virtual iterations; Converged reports
	// whether Tol fired before MaxIters.
	VirtualIters int  `json:"virtual_iters"`
	Converged    bool `json:"converged"`
	// FitTrace is the Phase-2 surrogate-fit trajectory.
	FitTrace []float64 `json:"fit_trace"`
	// RunStats aggregates the run's operational statistics.
	RunStats twopcp.RunStats `json:"run_stats"`
}

// NewSummary records a finished run's outcome.
func NewSummary(res *twopcp.Result) *Summary {
	return &Summary{
		Fit:          res.Fit,
		VirtualIters: res.VirtualIters,
		Converged:    res.Converged,
		FitTrace:     res.FitTrace,
		RunStats:     res.RunStats,
	}
}

// Job is one decomposition job: the submitted spec plus everything the
// service learned about it. The whole struct is the durable record
// (persisted as JSON on every state change) and the API's status
// representation — one shape, no translation layer to drift.
type Job struct {
	// ID is the store-assigned job identifier.
	ID string `json:"id"`
	// Spec is the normalized decomposition request.
	Spec Spec `json:"spec"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Error records why the job failed, was interrupted or quarantined.
	Error string `json:"error,omitempty"`
	// Created, Started and Finished stamp the lifecycle transitions
	// (zero until the transition happens). A requeued job keeps Created
	// and gets fresh Started/Finished stamps.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	// Dims is the input tensor's mode sizes, learned when the run starts.
	Dims []int `json:"dims,omitempty"`
	// Modes is the number of factor matrices available for download once
	// the job is done (len(Dims), recorded separately so clients need no
	// inference).
	Modes int `json:"modes,omitempty"`
	// Result is the numerical outcome, set only in StateDone.
	Result *Summary `json:"result,omitempty"`
}

// clone returns a deep-enough copy for handing outside the manager's
// mutex: value copy plus fresh Dims/FitTrace backing arrays.
func (j *Job) clone() *Job {
	c := *j
	if j.Dims != nil {
		c.Dims = append([]int(nil), j.Dims...)
	}
	if j.Result != nil {
		r := *j.Result
		r.FitTrace = append([]float64(nil), j.Result.FitTrace...)
		c.Result = &r
	}
	return &c
}
