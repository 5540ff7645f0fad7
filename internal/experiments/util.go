package experiments

import (
	"math/rand"
	"time"

	"twopcp"
	"twopcp/internal/blockstore"
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
	// IOWorkers bounds the prefetch reads in flight (0 = auto when
	// PrefetchDepth > 0).
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

// ErrStopped marks a run drained early via IO.Stop, in either phase; a
// Resume continues it bit-exactly. It is the root pipeline's sentinel.
var ErrStopped = twopcp.ErrInterrupted

// options applies the prefetch depth, I/O workers and observer to a run of
// the public pipeline.
func (io IO) options(opts twopcp.Options) twopcp.Options {
	opts.PrefetchDepth, opts.IOWorkers, opts.Observer = io.PrefetchDepth, io.IOWorkers, io.Observer
	return opts
}

// phase2 builds one Phase-2 engine from cfg, with the prefetch depth, I/O
// workers and observer applied and a MemStore when cfg names no store, and
// runs it. The sweeps share one Phase-1 result across their settings, so
// they drive the engine directly. took is the wall time of the run alone,
// without the engine's set-up.
func (io IO) phase2(cfg refine.Config) (res *refine.Result, took time.Duration, err error) {
	if cfg.Store == nil {
		cfg.Store = blockstore.NewMemStore()
	}
	cfg.PrefetchDepth, cfg.IOWorkers, cfg.Obs = io.PrefetchDepth, io.IOWorkers, io.Observer
	eng, err := refine.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err = eng.Run()
	return res, time.Since(start), err
}
