package jobs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"twopcp"
	"twopcp/internal/cli"
	"twopcp/internal/factorsnap"
	"twopcp/internal/obs"
	"twopcp/internal/par"
	"twopcp/internal/runstate"
	"twopcp/internal/serve"
)

// ErrDraining is returned by Submit once the manager has begun (or
// finished) draining — the daemon is shutting down and accepts no new
// work.
var ErrDraining = errors.New("jobs: manager is draining")

// ErrNotFound is returned for operations on unknown job IDs.
var ErrNotFound = errors.New("jobs: no such job")

// queueCap bounds the submission queue; Submit fails fast when the
// backlog is this deep rather than queueing without bound.
const queueCap = 1024

// Manager owns the job lifecycle: it recovers persisted jobs on startup,
// runs queued jobs on a fixed worker pool, streams their telemetry to
// per-job fan-outs, and drains gracefully. All state transitions are
// persisted through the Store before they are observable via Get/List,
// so a crash at any point recovers to a coherent queue.
type Manager struct {
	store *Store
	reg   *obs.Registry
	clock func() time.Time

	mu      sync.Mutex
	jobs    map[string]*Job
	fans    map[string]*obs.FanOut
	running map[string]*runHandle
	models  map[string]*serve.Model // lazily opened query models for done jobs
	order   []string                // job IDs in creation order, for List

	queue    chan string
	drainC   chan struct{}
	draining bool
	wg       sync.WaitGroup

	jobsRunning *obs.Gauge
}

// runHandle is the manager's view of one in-flight run.
type runHandle struct {
	stop     chan struct{}
	stopOnce sync.Once
	canceled bool // set before stop closes when the stop is a user cancel
}

// Config configures a Manager.
type Config struct {
	// Workers is the worker-pool size: how many jobs decompose
	// concurrently (0 = par.Workers(), the kernel-parallelism default).
	Workers int
	// Registry receives daemon-level metrics (job counters plus every
	// running job's run metrics). Nil disables metrics.
	Registry *obs.Registry
}

// NewManager opens a manager over store: it loads every persisted job,
// requeues the ones a previous daemon left unfinished (queued, running —
// i.e. crashed mid-run — and interrupted — i.e. drained), and starts the
// worker pool. Jobs with a checkpoint manifest resume from it, so the
// requeued work repeats nothing and its results stay bit-identical.
func NewManager(store *Store, cfg Config) (*Manager, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	m := &Manager{
		store:   store,
		reg:     cfg.Registry,
		clock:   time.Now,
		jobs:    make(map[string]*Job),
		fans:    make(map[string]*obs.FanOut),
		running: make(map[string]*runHandle),
		models:  make(map[string]*serve.Model),
		queue:   make(chan string, queueCap),
		drainC:  make(chan struct{}),
	}
	if m.reg != nil {
		m.jobsRunning = m.reg.Gauge("jobs.running")
	}
	persisted, err := store.Load()
	if err != nil {
		return nil, err
	}
	for _, job := range persisted {
		switch job.State {
		case StateQueued, StateRunning, StateInterrupted:
			// Unfinished work from the previous daemon process. Running
			// means the daemon died mid-run; interrupted means it drained.
			// Either way the checkpoint directory carries whatever progress
			// was durably saved, and the run resumes from it.
			job.State = StateQueued
			job.Error = ""
			if err := store.Put(job); err != nil {
				return nil, err
			}
		}
		m.jobs[job.ID] = job
		m.fans[job.ID] = obs.NewFanOut()
		m.order = append(m.order, job.ID)
		if job.State == StateQueued {
			select {
			case m.queue <- job.ID:
			default:
				// More persisted queued jobs than the queue holds: the
				// overflow stays durably queued and can be requeued via
				// Resume once the backlog clears.
			}
		}
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Submit validates and enqueues a new job. When input is non-nil its
// bytes become the job's tensor (upload mode); otherwise spec.Input must
// name a readable tensor file on this host.
func (m *Manager) Submit(spec Spec, input io.Reader) (*Job, error) {
	// Normalize and validate the spec up front with the same parsers the
	// run will use, so submissions fail at the API with a 4xx instead of
	// minutes later in a worker.
	if _, err := spec.Options("", "", false); err != nil {
		return nil, err
	}
	if input == nil {
		if spec.Input == "" {
			return nil, errors.New("jobs: spec.input is required (or upload the tensor)")
		}
		f, err := os.Open(spec.Input)
		if err != nil {
			return nil, fmt.Errorf("jobs: input not readable: %w", err)
		}
		f.Close()
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.mu.Unlock()

	job, err := m.store.Create(spec, input, m.clock())
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.draining {
		// Drain began while the record was being installed: leave it
		// queued on disk (the next daemon start picks it up) but do not
		// feed the dying pool.
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.jobs[job.ID] = job
	m.fans[job.ID] = obs.NewFanOut()
	m.order = append(m.order, job.ID)
	select {
	case m.queue <- job.ID:
	default:
		// The record is already durable; fail it in place rather than
		// leaving a queued record no worker will ever see this session.
		job.State = StateFailed
		job.Error = fmt.Sprintf("queue full (%d pending)", queueCap)
		m.store.Put(job)
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: queue full (%d pending)", queueCap)
	}
	snap := job.clone()
	m.mu.Unlock()
	if m.reg != nil {
		m.reg.Counter("jobs.submitted").Add(1)
	}
	return snap, nil
}

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return job.clone(), nil
}

// List returns snapshots of every job in creation order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].clone())
	}
	return out
}

// Store exposes the backing store (the server uses it to locate factor
// files for download).
func (m *Manager) Store() *Store { return m.store }

// Cancel stops a job: a queued job goes straight to canceled; a running
// job gets its stop channel closed, finishes its in-flight step, writes
// a checkpoint and lands in canceled. Canceling a terminal job is an
// error.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch job.State {
	case StateQueued:
		job.State = StateCanceled
		job.Finished = m.clock()
		if err := m.store.Put(job); err != nil {
			return err
		}
		m.publishState(job)
		return nil
	case StateRunning:
		r := m.running[id]
		r.canceled = true
		r.stopOnce.Do(func() { close(r.stop) })
		return nil
	}
	return fmt.Errorf("jobs: cannot cancel job in state %q", job.State)
}

// Resume requeues a job that stopped short of done — canceled,
// interrupted, quarantined or failed. If the job has a checkpoint it
// picks up from there; otherwise it restarts from scratch.
func (m *Manager) Resume(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	job, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	switch job.State {
	case StateCanceled, StateInterrupted, StateQuarantined, StateFailed:
	case StateQueued:
		// Re-enqueue is legal: it heals a queued record whose channel slot
		// was lost (startup overflow). runJob ignores duplicate entries.
	default:
		return nil, fmt.Errorf("jobs: cannot resume job in state %q", job.State)
	}
	job.State = StateQueued
	job.Error = ""
	job.Finished = time.Time{}
	if err := m.store.Put(job); err != nil {
		return nil, err
	}
	select {
	case m.queue <- id:
	default:
		return nil, fmt.Errorf("jobs: queue full (%d pending)", queueCap)
	}
	m.publishState(job)
	return job.clone(), nil
}

// Watch subscribes to a job's event stream: every telemetry event the
// run emits plus the manager's job.state transition events. The returned
// cancel detaches the subscription (and reports how many events the
// subscriber missed to backpressure drops). Watching a terminal job
// yields a live — but silent — stream; callers should consult Get first.
func (m *Manager) Watch(id string, buf int) (<-chan obs.Event, func() int64, error) {
	m.mu.Lock()
	fan, ok := m.fans[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch, cancel := fan.Subscribe(buf)
	return ch, cancel, nil
}

// Drain stops the daemon's work gracefully: no new submissions, every
// running job's stop channel closes (the run finishes its in-flight
// step and checkpoints, exactly like the CLI on SIGTERM), and Drain
// returns when the pool is idle. Interrupted jobs requeue on the next
// daemon start.
func (m *Manager) Drain() {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.drainC)
		for _, r := range m.running {
			r.stopOnce.Do(func() { close(r.stop) })
		}
	}
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	for id, mdl := range m.models {
		delete(m.models, id)
		mdl.Close()
	}
	m.mu.Unlock()
}

// worker is one pool goroutine: pull a queued job, run it, repeat until
// drain.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.drainC:
			return
		case id := <-m.queue:
			m.runJob(id)
		}
	}
}

// runJob executes one job end to end: transition to running, decompose
// with the job's checkpoint directory wired in, export factors, persist
// the terminal state and hand the run's memory back to the OS.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok || job.State != StateQueued {
		// Canceled while queued (or stale queue entry after a resume
		// race): nothing to run.
		m.mu.Unlock()
		return
	}
	r := &runHandle{stop: make(chan struct{})}
	// A drain that raced this dequeue must still stop the run promptly.
	select {
	case <-m.drainC:
		m.mu.Unlock()
		return
	default:
	}
	m.running[id] = r
	m.jobsRunning.Set(float64(len(m.running)))
	// A re-run is about to replace the job's outputs; drop any cached
	// query model so readers never see a stale snapshot.
	if mdl := m.models[id]; mdl != nil {
		delete(m.models, id)
		mdl.Close()
	}
	job.State = StateRunning
	job.Started = m.clock()
	fan := m.fans[id]
	if err := m.store.Put(job); err != nil {
		job.State = StateFailed
		job.Error = err.Error()
		job.Finished = m.clock()
		delete(m.running, id)
		m.jobsRunning.Set(float64(len(m.running)))
		m.publishState(job)
		m.mu.Unlock()
		return
	}
	m.publishState(job)
	spec := job.Spec
	resume := m.store.HasCheckpoint(id)
	m.mu.Unlock()

	opts, err := spec.Options(m.store.CheckpointDir(id), m.store.StoreDir(id), resume)
	var res *twopcp.Result
	var dims []int
	if err == nil {
		opts.Stop = r.stop
		opts.Observer = &obs.Observer{Metrics: m.reg, OnEvent: fan.Publish}
		res, dims, err = twopcp.DecomposeFile(spec.Input, opts)
	}
	m.settle(job, r, res, dims, err)
	// The run's blocks are garbage now, but the heap goal they set stays
	// at twice the largest until the next collection. Collecting here and
	// handing the pages back starts serving from the heap goal of what
	// stays live.
	debug.FreeOSMemory()
}

// settle records a run's outcome: the job's terminal state, its exported
// factors when it is done, and the persisted record. A drain signal may
// land after the run already finished; the result still counts. Only the
// run's own outcome decides the state.
func (m *Manager) settle(job *Job, r *runHandle, res *twopcp.Result, dims []int, err error) {
	id := job.ID
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.running, id)
	m.jobsRunning.Set(float64(len(m.running)))
	job.Finished = m.clock()
	var qe *twopcp.QuarantineError
	switch {
	case err == nil:
		job.Dims = dims
		job.Modes = len(dims)
		job.Result = NewSummary(res)
		job.State = StateDone
		if werr := m.writeFactors(id, res); werr != nil {
			job.State = StateFailed
			job.Error = werr.Error()
			job.Result = nil
		}
	case errors.Is(err, twopcp.ErrInterrupted) && r.canceled:
		job.State = StateCanceled
		job.Error = err.Error()
	case errors.Is(err, twopcp.ErrInterrupted):
		job.State = StateInterrupted
		job.Error = err.Error()
	case errors.As(err, &qe):
		job.State = StateQuarantined
		job.Error = err.Error()
	default:
		job.State = StateFailed
		job.Error = err.Error()
	}
	if m.reg != nil {
		m.reg.Counter("jobs." + string(job.State)).Add(1)
	}
	if perr := m.store.Put(job); perr != nil && job.Error == "" {
		job.Error = perr.Error()
	}
	m.publishState(job)
}

// writeFactors exports the result's factor matrices into the job
// directory: the CSVs a client downloads (through the same writer as the
// CLI's -out-prefix, so the bytes match a local run's export exactly)
// plus the mmap-able factor snapshot the query endpoints serve.
func (m *Manager) writeFactors(id string, res *twopcp.Result) error {
	for mode, f := range res.Model.Factors {
		if err := cli.WriteFactorCSV(m.store.FactorPath(id, mode), f); err != nil {
			return err
		}
	}
	// Stamp the snapshot with the run's option fingerprint when the
	// checkpoint manifest has one (it always should; a missing manifest
	// degrades to an unstamped snapshot rather than a failed job).
	var meta *runstate.Meta
	if mt, err := runstate.ReadMeta(m.store.CheckpointDir(id)); err == nil {
		meta = &mt
	}
	return factorsnap.Write(m.store.SnapshotPath(id), res.Model.Lambda, res.Model.Factors, meta)
}

// QueryModel returns the query engine over a done job's factor snapshot,
// opening (and caching) it on first use. Jobs finished by an older daemon
// without a snapshot are healed transparently: the factors are recovered
// from the result checkpoint and the snapshot is written before opening.
func (m *Manager) QueryModel(id string) (*serve.Model, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if job.State != StateDone {
		return nil, fmt.Errorf("jobs: job %s is %s; queries need a done job", id, job.State)
	}
	if mdl := m.models[id]; mdl != nil {
		return mdl, nil
	}
	path := m.store.SnapshotPath(id)
	mdl, err := serve.Open(path, serve.Config{})
	if errors.Is(err, fs.ErrNotExist) {
		st, rerr := runstate.ReadResult(m.store.CheckpointDir(id))
		if rerr != nil {
			return nil, fmt.Errorf("jobs: job %s has no factor snapshot and no recoverable result: %w", id, rerr)
		}
		// Checkpointed factors carry λ folded in (the pipeline normalizes
		// before saving), so the recovered model's weights are all ones —
		// the same convention resultFromState uses.
		lambda := make([]float64, st.Factors[0].Cols)
		for f := range lambda {
			lambda[f] = 1
		}
		var meta *runstate.Meta
		if mt, merr := runstate.ReadMeta(m.store.CheckpointDir(id)); merr == nil {
			meta = &mt
		}
		if werr := factorsnap.Write(path, lambda, st.Factors, meta); werr != nil {
			return nil, werr
		}
		mdl, err = serve.Open(path, serve.Config{})
	}
	if err != nil {
		return nil, err
	}
	m.models[id] = mdl
	return mdl, nil
}

// publishState emits a synthetic job.state event to the job's fan-out so
// watchers see lifecycle transitions inline with the run's telemetry.
// Caller holds m.mu (or the job is not yet visible to anyone else).
func (m *Manager) publishState(job *Job) {
	fan := m.fans[job.ID]
	if fan == nil {
		return
	}
	fields := []obs.Field{
		obs.Str("job", job.ID),
		obs.Str("state", string(job.State)),
	}
	if job.Error != "" {
		fields = append(fields, obs.Str("error", job.Error))
	}
	fan.Publish(obs.Event{Name: "job.state", TS: m.clock().UnixNano(), Fields: fields})
}
