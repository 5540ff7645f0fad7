package experiments

import (
	"math/rand"

	"twopcp/internal/obs"
	"twopcp/internal/refine"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// IO carries the Phase-2 prefetch knobs shared by every experiment
// config. The zero value is the paper's synchronous setting.
// Swap counts, fit traces and factors are identical at every depth (the
// engine's update order does not depend on prefetching), so enabling the
// pipeline only changes the wall-clock columns of the tables; raw store
// byte counters may include a few wasted prefetch reads.
type IO struct {
	// PrefetchDepth is how many schedule steps ahead Phase 2 prefetches
	// data units (0 = synchronous).
	PrefetchDepth int
	// IOWorkers sizes the prefetch pool (0 = auto when PrefetchDepth > 0).
	IOWorkers int
	// Checkpoint, when non-empty, makes the experiment's long decomposition
	// runs durable: each run checkpoints into its own subdirectory of this
	// directory (named after the run), and Resume restarts interrupted runs
	// from their last checkpoint. Results are bit-identical either way.
	// Currently honored by the convergence experiment, whose per-schedule
	// trace runs are the longest single engine invocations in the suite.
	Checkpoint string
	// Resume continues runs previously checkpointed under Checkpoint.
	Resume bool
	// Observer receives telemetry from every engine run the experiment
	// performs (nil disables it). Telemetry never changes results; see
	// the obs package's determinism contract.
	Observer *obs.Observer
	// Stop, when non-nil, requests a graceful drain when closed: the
	// in-flight engine run finishes its current step, checkpoints (when
	// Checkpoint is set), and the experiment returns an error wrapping
	// ErrStopped. Currently honored by the convergence experiment.
	Stop <-chan struct{}
}

// ErrStopped marks a run drained early via IO.Stop; a Resume continues it
// bit-exactly. It aliases the engine's sentinel so errors.Is works on
// errors surfacing from either layer.
var ErrStopped = refine.ErrStopped
