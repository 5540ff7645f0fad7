// Package par provides the shared worker-pool primitive behind twopcp's
// parallel compute kernels (dense MTTKRP, Gram and GEMM row panels).
//
// The pool is a fixed set of long-lived goroutines (one per logical CPU)
// started lazily on first use; kernels submit work with Do, which splits an
// index space across the pool and the calling goroutine. Parallelism is
// capped by the PushWorkers/PopWorkers pair — the process-wide
// KernelWorkers knob exposed through twopcp.Options — and Do degrades to a
// plain loop when the cap is 1, the index space is trivial, or every pool
// worker is busy (nested parallelism).
//
// Determinism contract: the kernels built on Do are written so that their
// floating-point results do not depend on the worker count or on how panels
// are scheduled — each output region is owned by exactly one invocation and
// reductions happen in fixed index order (see the package docs of mat and
// tensor). Do itself guarantees only that fn is called exactly once for
// every index and that all calls have returned when Do returns.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"twopcp/internal/obs"
)

// maxWorkers caps kernel parallelism; 0 means GOMAXPROCS.
var maxWorkers atomic.Int64

// Workers returns the current kernel-parallelism cap (at least 1).
func Workers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// MinParallelWork is the approximate flop count below which the compute
// kernels skip parallel dispatch (see WorkersFor). Panel structure — and
// therefore floating-point results — is unaffected; only scheduling
// changes.
const MinParallelWork = 1 << 16

// WorkersFor returns the worker cap for an operation of the given
// approximate flop count: 1 (stay on the caller) below MinParallelWork,
// Workers() otherwise.
func WorkersFor(work int) int {
	if work < MinParallelWork {
		return 1
	}
	return Workers()
}

// Scoped overrides: PushWorkers/PopWorkers bracket a call that wants its
// own cap without leaking it. Active overrides form a stack; the newest
// one's cap applies (the cap is still one process-global value, so while
// calls with different caps overlap, the most recently pushed governs all
// of them). Popping any override — in any completion order — re-applies
// the newest remaining cap, and the last pop restores the default
// (GOMAXPROCS), so a finished call can never leave its cap behind.
var (
	overrideMu  sync.Mutex
	overrideSeq int
	overrides   []workersOverride
)

type workersOverride struct {
	id  int
	cap int64
}

// PushWorkers installs a scoped kernel-parallelism cap and returns a
// token; pair with PopWorkers(token). n <= 0 means the default
// (GOMAXPROCS).
func PushWorkers(n int) int {
	overrideMu.Lock()
	defer overrideMu.Unlock()
	if n < 0 {
		n = 0
	}
	overrideSeq++
	overrides = append(overrides, workersOverride{id: overrideSeq, cap: int64(n)})
	maxWorkers.Store(int64(n))
	return overrideSeq
}

// PopWorkers exits the override identified by token, re-applying the
// newest remaining override's cap (or the default when none remain).
// Unknown tokens are no-ops.
func PopWorkers(token int) {
	overrideMu.Lock()
	defer overrideMu.Unlock()
	for i, o := range overrides {
		if o.id == token {
			overrides = append(overrides[:i], overrides[i+1:]...)
			break
		}
	}
	if len(overrides) == 0 {
		maxWorkers.Store(0)
	} else {
		maxWorkers.Store(overrides[len(overrides)-1].cap)
	}
}

var (
	poolOnce sync.Once
	tasks    chan func()
)

// dispatchCounter optionally counts parallel kernel dispatches (DoWorkers
// calls that actually fan out). It is process global like the worker cap:
// the CLIs install it once at startup when a metrics registry is active;
// library users with concurrent runs in one process should leave it unset
// and rely on per-run observers instead. The disabled path costs one
// atomic pointer load per parallel dispatch — serial fallbacks don't even
// pay that.
var dispatchCounter atomic.Pointer[obs.Counter]

// SetDispatchCounter installs (or, with nil, removes) the process-global
// dispatch counter, returning nothing; metric: par.dispatches.
func SetDispatchCounter(c *obs.Counter) { dispatchCounter.Store(c) }

func startPool() {
	n := runtime.GOMAXPROCS(0)
	tasks = make(chan func(), n)
	for i := 0; i < n; i++ {
		go func() {
			for f := range tasks {
				f()
			}
		}()
	}
}

// Do calls fn(i) exactly once for every i in [0, n), spreading the calls
// over up to Workers() goroutines, and returns when all calls have
// completed. Indices are handed out dynamically, so per-index cost may be
// uneven; fn must be safe to call concurrently. With an effective worker
// count of 1 the calls run fn(0), fn(1), ... in order on the caller.
func Do(n int, fn func(i int)) {
	DoWorkers(Workers(), n, fn)
}

// DoWorkers is Do with an explicit worker cap (further limited by the
// process-wide setting). Kernels use it to stay serial when the work is too
// small to amortize dispatch; because kernel results are worker-count
// invariant, the cap never changes the output.
func DoWorkers(workers, n int, fn func(i int)) {
	if w := Workers(); workers > w {
		workers = w
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if c := dispatchCounter.Load(); c != nil {
		c.Inc()
	}
	poolOnce.Do(startPool)
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	helpers := make([]*atomic.Bool, 0, workers-1)
	for h := 0; h < workers-1; h++ {
		claimed := &atomic.Bool{}
		wg.Add(1)
		t := func() {
			if claimed.CompareAndSwap(false, true) {
				run()
				wg.Done()
			}
			// Lost the claim: the caller already finished the index space,
			// reclaimed this helper and called Done on its behalf.
		}
		select {
		case tasks <- t:
			helpers = append(helpers, claimed)
		default:
			// Every pool worker is busy (e.g. kernels nested under other
			// kernels). The caller still drives the loop to completion, so
			// skipping the helper costs parallelism, never progress.
			wg.Done()
		}
	}
	run()
	// Steal back helpers still sitting unstarted in the queue so wg.Wait
	// doesn't stall behind unrelated long-running tasks: whoever wins the
	// claim owns the Done.
	for _, claimed := range helpers {
		if claimed.CompareAndSwap(false, true) {
			wg.Done()
		}
	}
	wg.Wait()
}
