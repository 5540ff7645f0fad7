// Package buffer implements 2PCP's buffer manager for Phase-2 data units
// (paper §VII): a bounded cache over a blockstore.Store with pinning,
// dirty-tracking write-back, and three replacement policies — LRU, MRU and
// the paper's forward-looking (FOR) policy, which exploits the regularity
// of the update schedule to evict the unit whose next use lies furthest in
// the future (Belady's rule made practical by the known cyclic access
// string).
//
// A "data swap" in the paper's evaluation is one unit fetched from the
// store into the buffer; Stats.Fetches counts exactly that.
//
// # Concurrency
//
// The Manager is safe for concurrent use: Acquire, Prefetch, Release and
// the read-only accessors may be called from multiple goroutines. When
// Config.Workers > 0 the manager additionally runs an asynchronous I/O
// pipeline: Prefetch reserves capacity and fetches units on a bounded pool
// of I/O worker goroutines, and dirty evictions are written back in the
// background instead of inline. Replacement decisions — hit/miss
// classification, eviction victims, the schedule cursor and every Stats
// counter — are made synchronously inside Acquire under the manager's
// mutex, so a schedule-ordered sequence of Acquire/Release calls produces
// bit-for-bit identical statistics whether prefetching is on or off;
// prefetching only moves the bytes earlier. FlushAll, Drain and Close
// quiesce the pipeline and must not race with new Acquire/Prefetch calls.
package buffer

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"twopcp/internal/blockstore"
	"twopcp/internal/grid"
	"twopcp/internal/obs"
	"twopcp/internal/schedule"
)

// ErrAsyncWriteBack marks errors surfaced from the background write-back
// pipeline. When Acquire or FlushAll returns an error wrapping it, the
// failed Put happened on an earlier, already-completed step — the
// manager's resident state is still consistent with the last step
// boundary, which is what lets the Phase-2 engine take an emergency
// checkpoint before surfacing the error. The original store error is
// wrapped alongside, so errors.Is classification (ErrInjected,
// blockstore.IsTransient) still works through it.
var ErrAsyncWriteBack = errors.New("buffer: background write-back failed")

// Policy selects the replacement strategy.
type Policy int

const (
	// LRU evicts the least-recently-used unpinned unit.
	LRU Policy = iota
	// MRU evicts the most-recently-used unpinned unit; the paper argues
	// this fits the cyclic "temporal a-locality" of fiber traversals.
	MRU
	// Forward is the paper's forward-looking, schedule-aware policy:
	// evict the unpinned unit whose next scheduled use is furthest away.
	Forward
)

// Policies lists all replacement policies in the paper's order.
var Policies = []Policy{LRU, MRU, Forward}

// String returns the paper's abbreviation.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case MRU:
		return "MRU"
	case Forward:
		return "FOR"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps the paper's abbreviations to policies.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "LRU", "lru":
		return LRU, nil
	case "MRU", "mru":
		return MRU, nil
	case "FOR", "for", "forward":
		return Forward, nil
	}
	return 0, fmt.Errorf("buffer: unknown policy %q", s)
}

// Stats counts buffer activity. Fetches is the paper's "data swaps".
type Stats struct {
	Fetches    int64 // acquisitions not served from the buffer
	Hits       int64 // acquisitions served from the buffer
	Evictions  int64 // units dropped to make space
	WriteBacks int64 // dirty units written to the store on eviction/flush
	Overflows  int64 // times pinned data exceeded nominal capacity
	Prefetches int64 // background fetches issued by Prefetch
	// DegradedFetches counts prefetches whose background fetch failed and
	// whose demanding Acquire fell back to a fresh synchronous fetch
	// instead of surfacing the prefetch's error. Like Prefetches and
	// Overflows it is exempt from the prefetch-transparency contract:
	// always 0 in synchronous mode, and nonzero only under faults.
	DegradedFetches int64
}

type entry struct {
	unit     *blockstore.Unit
	bytes    int64
	lastUsed int64
	pins     int
	dirty    bool
}

// inflight is one background (or joined synchronous) fetch. The unit and
// err fields are written exactly once, before done is closed.
type inflight struct {
	done  chan struct{}
	unit  *blockstore.Unit
	err   error
	bytes int64 // capacity reservation held until the fetch completes
	// prefetched marks fetches issued by Prefetch: their failures degrade
	// to a synchronous retry in Acquire instead of poisoning the demand
	// path (a dropped hint must never be worse than no hint).
	prefetched bool
}

// Manager is the buffer manager. See the package comment for the
// concurrency contract.
type Manager struct {
	store    blockstore.Store
	pattern  *grid.Pattern
	capacity int64
	policy   Policy
	workers  int
	rank     int

	mu       sync.Mutex
	resident map[int]*entry // unit id → entry
	used     int64
	reserved int64 // bytes of in-flight prefetch reservations
	clock    int64
	stats    Stats
	wbErr    error // first asynchronous write-back failure
	closed   bool

	// infl holds fetches in progress (prefetched or joined): a unit is in
	// at most one of resident/infl. Completed prefetches stay here until
	// an Acquire consumes them.
	infl map[int]*inflight
	// wbPending maps a unit id to the completion channel of its in-flight
	// background write-back. At most one write-back per unit can be
	// pending: re-residency requires a fetch, and fetches wait for the
	// pending write-back first.
	wbPending map[int]chan struct{}

	fetchQ   chan func()
	wbQ      chan func()
	workerWG sync.WaitGroup // pool goroutines
	ioWG     sync.WaitGroup // outstanding async jobs

	// Telemetry. The counters mirror the Stats fields into the observer's
	// registry (monotonic — unlike stats they survive ResetStats); trace
	// events are emitted at the synchronous decision points under mu, so
	// the package's prefetch-transparency contract makes them
	// deterministic. Prefetches and Overflows are metrics-only: their
	// counts legitimately vary with concurrency settings.
	tele        *obs.Observer
	cFetches    *obs.Counter
	cHits       *obs.Counter
	cEvictions  *obs.Counter
	cWriteBacks *obs.Counter
	cOverflows  *obs.Counter
	cPrefetches *obs.Counter
	cDegraded   *obs.Counter
	gUsed       *obs.Gauge

	// Forward-policy state: the cyclic unit-access string (as unit ids),
	// per-unit sorted occurrence positions, and the current cursor.
	cycle  []int
	occ    map[int][]int
	cursor int
}

// Config assembles a Manager.
type Config struct {
	// Store is the backing unit store (required).
	Store blockstore.Store
	// Pattern is the grid pattern; unit ids are derived from it (required).
	Pattern *grid.Pattern
	// CapacityBytes bounds resident unit payload. The paper sizes it as a
	// fraction of schedule.TotalBytes.
	CapacityBytes int64
	// Policy selects the replacement strategy.
	Policy Policy
	// Schedule must be supplied for the Forward policy (its access string
	// defines next-use distances); ignored otherwise.
	Schedule *schedule.Schedule
	// Workers sizes the asynchronous I/O pool. 0 (the default) keeps the
	// manager fully synchronous: Prefetch is a no-op and dirty evictions
	// write back inline, exactly the paper's sequential setting. When
	// positive, Workers goroutines serve prefetches and max(1, Workers/2)
	// more perform background write-backs.
	Workers int
	// Rank is the decomposition rank, used to estimate unit sizes for
	// prefetch capacity reservations. Required when Workers > 0.
	Rank int
	// Obs receives telemetry (buffer.fetch/evict/writeback trace events
	// and mirrored counters). Nil disables it at ~zero cost.
	Obs *obs.Observer
}

// Check validates the settings that do not depend on a store, a pattern or
// a schedule: the policy, the capacity and the I/O pool size. NewManager
// runs it; callers that want to fail before any data exists (the Phase-2
// engine's own pre-flight) run it earlier.
func (cfg Config) Check() error {
	if cfg.Policy < LRU || cfg.Policy > Forward {
		return fmt.Errorf("buffer: unknown policy %d", int(cfg.Policy))
	}
	if cfg.CapacityBytes <= 0 {
		return fmt.Errorf("buffer: capacity %d must be positive", cfg.CapacityBytes)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("buffer: Workers %d must be non-negative", cfg.Workers)
	}
	if cfg.Workers > 0 && cfg.Rank <= 0 {
		return fmt.Errorf("buffer: Rank is required when Workers > 0 (sizes prefetch reservations)")
	}
	return nil
}

// NewManager validates cfg and builds the manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Store == nil || cfg.Pattern == nil {
		return nil, fmt.Errorf("buffer: Store and Pattern are required")
	}
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	m := &Manager{
		store:     cfg.Store,
		pattern:   cfg.Pattern,
		capacity:  cfg.CapacityBytes,
		policy:    cfg.Policy,
		workers:   cfg.Workers,
		rank:      cfg.Rank,
		resident:  make(map[int]*entry),
		infl:      make(map[int]*inflight),
		wbPending: make(map[int]chan struct{}),

		tele:        cfg.Obs,
		cFetches:    cfg.Obs.Counter("buffer.fetches"),
		cHits:       cfg.Obs.Counter("buffer.hits"),
		cEvictions:  cfg.Obs.Counter("buffer.evictions"),
		cWriteBacks: cfg.Obs.Counter("buffer.write_backs"),
		cOverflows:  cfg.Obs.Counter("buffer.overflows"),
		cPrefetches: cfg.Obs.Counter("buffer.prefetches"),
		cDegraded:   cfg.Obs.Counter("buffer.degraded_fetches"),
		gUsed:       cfg.Obs.Gauge("buffer.used_bytes"),
	}
	if cfg.Policy == Forward {
		if cfg.Schedule == nil {
			return nil, fmt.Errorf("buffer: Forward policy requires a Schedule")
		}
		accesses := cfg.Schedule.AccessString()
		m.cycle = make([]int, len(accesses))
		m.occ = make(map[int][]int)
		for i, a := range accesses {
			id := schedule.UnitID(cfg.Pattern, a.Mode, a.Part)
			m.cycle[i] = id
			m.occ[id] = append(m.occ[id], i)
		}
	}
	if m.workers > 0 {
		m.fetchQ = make(chan func(), 4*m.workers)
		m.wbQ = make(chan func(), 4*m.workers)
		for i := 0; i < m.workers; i++ {
			m.workerWG.Add(1)
			go m.serve(m.fetchQ)
		}
		for i := 0; i < max(1, m.workers/2); i++ {
			m.workerWG.Add(1)
			go m.serve(m.wbQ)
		}
	}
	return m, nil
}

func (m *Manager) serve(q chan func()) {
	defer m.workerWG.Done()
	for job := range q {
		job()
	}
}

// Prefetch asks the manager to stage unit ⟨mode, part⟩ for an upcoming
// Acquire. It is a hint: it never blocks on store I/O, never evicts, and
// has no effect on replacement decisions or statistics other than
// Stats.Prefetches — the later Acquire still classifies the access as a
// miss and counts the swap, it just finds the bytes already (or nearly)
// there. The fetch runs on the I/O worker pool after reserving capacity;
// the reservation is held until the Acquire consumes the staged unit, so
// resident + staged data never exceeds two buffers' worth. The hint is
// dropped when the unit is resident, already in flight, the reservation
// budget is exhausted, the worker pool's queue is full, or the manager is
// synchronous (Workers: 0) or closed.
func (m *Manager) Prefetch(mode, part int) {
	if m.workers == 0 {
		return
	}
	id := schedule.UnitID(m.pattern, mode, part)
	est := schedule.UnitBytes(m.pattern, mode, part, m.rank)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.resident[id] != nil || m.infl[id] != nil || m.reserved+est > m.capacity {
		return
	}
	inf := &inflight{done: make(chan struct{}), bytes: est, prefetched: true}
	wb := m.wbPending[id]
	job := func() {
		defer m.ioWG.Done()
		if wb != nil {
			<-wb
		}
		u, err := m.store.Get(mode, part)
		m.mu.Lock()
		inf.unit, inf.err = u, err
		if err != nil {
			// Nothing was staged; free the reservation now. Successful
			// fetches keep it until Acquire installs the unit.
			m.reserved -= inf.bytes
			inf.bytes = 0
		}
		m.mu.Unlock()
		close(inf.done)
	}
	m.ioWG.Add(1)
	select {
	case m.fetchQ <- job:
		m.infl[id] = inf
		m.reserved += est
		m.stats.Prefetches++
		m.cPrefetches.Inc()
	default:
		// Pool saturated: drop the hint rather than stall the caller's
		// compute thread behind store I/O.
		m.ioWG.Done()
	}
}

// Acquire pins the unit ⟨mode, part⟩ in the buffer, fetching it from the
// store on a miss (possibly evicting). Every call advances the schedule
// cursor, so callers must acquire units in exactly the schedule's access
// order when using the Forward policy. A miss whose unit is in flight from
// a Prefetch waits for that fetch instead of reading the store again; it
// still counts as a fetch ("data swap") because the buffer did not hold
// the unit when it was demanded. The unit is the caller's to use until the
// matching Release: once evicted, its storage is recycled into a later
// fetch.
func (m *Manager) Acquire(mode, part int) (*blockstore.Unit, error) {
	id := schedule.UnitID(m.pattern, mode, part)
	m.mu.Lock()
	if err := m.wbErr; err != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", ErrAsyncWriteBack, err)
	}
	m.clock++
	myClock := m.clock
	pos := m.cursor
	if len(m.cycle) > 0 {
		if m.cycle[pos] != id {
			m.mu.Unlock()
			return nil, fmt.Errorf("buffer: access ⟨%d,%d⟩ deviates from schedule position %d", mode, part, pos)
		}
		m.cursor = (m.cursor + 1) % len(m.cycle)
	}
	for {
		if e, ok := m.resident[id]; ok {
			if e.lastUsed < myClock {
				e.lastUsed = myClock
			}
			e.pins++
			m.stats.Hits++
			m.cHits.Inc()
			m.mu.Unlock()
			return e.unit, nil
		}
		inf, joined := m.infl[id]
		if !joined {
			inf = &inflight{done: make(chan struct{})}
			m.infl[id] = inf
			wb := m.wbPending[id]
			m.mu.Unlock()
			if wb != nil {
				<-wb
			}
			u, err := m.store.Get(mode, part)
			inf.unit, inf.err = u, err
			close(inf.done)
		} else {
			m.mu.Unlock()
			<-inf.done
		}
		m.mu.Lock()
		if m.infl[id] == inf {
			// First goroutine past the fetch installs (or discards) it.
			delete(m.infl, id)
			m.reserved -= inf.bytes
			if inf.err == nil {
				u := inf.unit
				m.resident[id] = &entry{unit: u, bytes: u.Bytes(), lastUsed: myClock}
				m.used += u.Bytes()
			}
		}
		if inf.err != nil {
			if inf.prefetched {
				// A failed prefetch must never be worse than no prefetch:
				// its reservation is already freed and the inflight entry
				// removed above, so degrade to a fresh synchronous fetch
				// by going around the loop (the store's own retry layer,
				// if any, applies to that attempt). Only a demand fetch's
				// error surfaces.
				m.stats.DegradedFetches++
				m.cDegraded.Inc()
				continue
			}
			m.mu.Unlock()
			return nil, inf.err
		}
		e, ok := m.resident[id]
		if !ok {
			// Installed by us or a peer, then evicted by a concurrent
			// acquirer's shrink before we could pin it (only possible
			// off-schedule, under concurrent load). Go around again.
			continue
		}
		if e.lastUsed < myClock {
			e.lastUsed = myClock
		}
		e.pins++
		m.stats.Fetches++
		m.cFetches.Inc()
		m.gUsed.Set(float64(m.used))
		if m.tele.Tracing() {
			m.tele.Emit("buffer.fetch",
				obs.Int("mode", mode), obs.Int("part", part), obs.I64("bytes", e.bytes))
		}
		wbs, err := m.shrink(pos)
		m.mu.Unlock()
		for _, job := range wbs {
			m.wbQ <- job
		}
		if err != nil {
			return nil, err
		}
		return e.unit, nil
	}
}

// Release unpins a previously acquired unit; dirty marks it modified so
// eviction (or FlushAll) writes it back.
func (m *Manager) Release(mode, part int, dirty bool) {
	id := schedule.UnitID(m.pattern, mode, part)
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.resident[id]
	if !ok || e.pins <= 0 {
		panic(fmt.Sprintf("buffer: Release of unpinned unit ⟨%d,%d⟩", mode, part))
	}
	e.pins--
	if dirty {
		e.dirty = true
	}
}

// shrink evicts unpinned units until usage fits capacity, returning the
// background write-back jobs to enqueue once the lock is dropped. If
// everything resident is pinned the buffer temporarily overflows (counted,
// not fatal), mirroring a real buffer manager that must keep its working
// set. Called with mu held.
func (m *Manager) shrink(pos int) ([]func(), error) {
	var jobs []func()
	for m.used > m.capacity {
		victim := m.pickVictim(pos)
		if victim == -1 {
			m.stats.Overflows++
			m.cOverflows.Inc()
			return jobs, nil
		}
		job, err := m.evict(victim)
		if err != nil {
			return jobs, err
		}
		if job != nil {
			jobs = append(jobs, job)
		}
	}
	return jobs, nil
}

// pickVictim returns the unit id to evict, or -1 when nothing is evictable.
// Called with mu held.
func (m *Manager) pickVictim(pos int) int {
	best := -1
	var bestKey int64
	for id, e := range m.resident {
		if e.pins > 0 {
			continue
		}
		var key int64
		switch m.policy {
		case LRU:
			key = -e.lastUsed // oldest wins
		case MRU:
			key = e.lastUsed // newest wins
		case Forward:
			key = int64(m.nextUseDistance(id, pos)) // furthest wins
		}
		if best == -1 || key > bestKey || (key == bestKey && id < best) {
			best, bestKey = id, key
		}
	}
	return best
}

// nextUseDistance returns how many accesses ahead of pos unit id is next
// used, wrapping around the cycle. Units never used again in the cycle
// (impossible for tensor-filling schedules) get the maximal distance.
func (m *Manager) nextUseDistance(id, pos int) int {
	occ := m.occ[id]
	n := len(m.cycle)
	if len(occ) == 0 {
		return n + 1
	}
	// First occurrence strictly after pos.
	j := sort.SearchInts(occ, pos+1)
	if j < len(occ) {
		return occ[j] - pos
	}
	return occ[0] + n - pos
}

// evict drops the unit and recycles its allocation. A dirty unit is
// written back first: inline in synchronous mode, otherwise as a
// background job (returned for the caller to enqueue outside the lock).
// The WriteBacks counter increments at eviction time in both modes, so
// statistics do not depend on I/O timing. Called with mu held.
func (m *Manager) evict(id int) (func(), error) {
	e := m.resident[id]
	var job func()
	if e.dirty {
		m.stats.WriteBacks++
		m.cWriteBacks.Inc()
		if m.tele.Tracing() {
			m.tele.Emit("buffer.writeback",
				obs.Int("mode", e.unit.Mode), obs.Int("part", e.unit.Part), obs.I64("bytes", e.bytes))
		}
		if m.workers == 0 {
			if err := m.writeBack(e.unit); err != nil {
				return nil, err
			}
		} else {
			// prev is always nil: a unit can only be evicted while
			// resident, and becoming resident again waits for its pending
			// write-back. The chain keeps writes ordered even so.
			prev := m.wbPending[id]
			done := make(chan struct{})
			m.wbPending[id] = done
			u := e.unit
			m.ioWG.Add(1)
			job = func() {
				defer m.ioWG.Done()
				if prev != nil {
					<-prev
				}
				err := m.writeBack(u)
				u.Recycle()
				m.mu.Lock()
				if err != nil && m.wbErr == nil {
					m.wbErr = err
				}
				if m.wbPending[id] == done {
					delete(m.wbPending, id)
				}
				m.mu.Unlock()
				close(done)
			}
		}
	}
	delete(m.resident, id)
	m.used -= e.bytes
	m.stats.Evictions++
	m.cEvictions.Inc()
	m.gUsed.Set(float64(m.used))
	if m.tele.Tracing() {
		m.tele.Emit("buffer.evict",
			obs.Int("mode", e.unit.Mode), obs.Int("part", e.unit.Part))
	}
	if job == nil {
		// Nothing refers to an evicted unit once it is written back (the
		// background job does this for itself): callers keep one only
		// while it is pinned.
		e.unit.Recycle()
	}
	return job, nil
}

// writeBack puts the unit's A part — all Phase 2 ever changes of a unit;
// the store keeps the U part the unit was seeded with. One Put, on every
// path (inline eviction, background job, FlushAll): whether a transient
// failure is retried is the store's business (blockstore.Resilient), so
// the retry budget is the same at every Workers setting.
func (m *Manager) writeBack(u *blockstore.Unit) error {
	return m.store.Put(&blockstore.Unit{Mode: u.Mode, Part: u.Part, A: u.A})
}

// Drain blocks until every background fetch and write-back has settled.
// It must not race with new Acquire or Prefetch calls.
func (m *Manager) Drain() {
	m.ioWG.Wait()
}

// FlushAll writes every dirty resident unit back to the store (keeping it
// resident and clean) after draining the background pipeline. Phase 2
// calls this at termination. A synchronous manager writes sequentially in
// unit-id order (deterministic store traffic); with Workers > 0 the
// flushes issue in the same order but run concurrently on the I/O pool —
// same writes, shorter tail. Like Drain, it must not race with new
// Acquire or Prefetch calls.
func (m *Manager) FlushAll() error {
	m.Drain()
	m.mu.Lock()
	if m.wbErr != nil {
		err := m.wbErr
		m.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrAsyncWriteBack, err)
	}
	// Deterministic order for reproducible store traffic.
	ids := make([]int, 0, len(m.resident))
	for id := range m.resident {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var dirty []*entry
	for _, id := range ids {
		e := m.resident[id]
		if !e.dirty {
			continue
		}
		m.stats.WriteBacks++
		m.cWriteBacks.Inc()
		if m.tele.Tracing() {
			m.tele.Emit("buffer.writeback",
				obs.Int("mode", e.unit.Mode), obs.Int("part", e.unit.Part), obs.I64("bytes", e.bytes))
		}
		e.dirty = false
		dirty = append(dirty, e)
	}
	workers := m.workers
	m.mu.Unlock()
	return blockstore.ForEachConcurrent(len(dirty), workers, func(i int) error {
		return m.writeBack(dirty[i].unit)
	})
}

// Close drains the pipeline, stops the worker pool and discards
// unconsumed prefetches. It returns the first background write-back error,
// if any. Close is idempotent; the manager must not be used afterwards
// (except further Close calls). Like Drain, it must not race with new
// Acquire or Prefetch calls.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		err := m.wbErr
		m.mu.Unlock()
		return err
	}
	m.closed = true
	m.mu.Unlock()
	m.ioWG.Wait()
	if m.workers > 0 {
		close(m.fetchQ)
		close(m.wbQ)
	}
	m.workerWG.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.infl = make(map[int]*inflight)
	m.reserved = 0
	return m.wbErr
}

// Contains reports whether the unit is resident (for tests/diagnostics).
func (m *Manager) Contains(mode, part int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.resident[schedule.UnitID(m.pattern, mode, part)]
	return ok
}

// InFlight reports whether a prefetch (or joined fetch) of the unit is
// outstanding or staged but not yet consumed (for tests/diagnostics).
func (m *Manager) InFlight(mode, part int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.infl[schedule.UnitID(m.pattern, mode, part)]
	return ok
}

// UsedBytes returns the resident payload volume.
func (m *Manager) UsedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Capacity returns the configured capacity in bytes.
func (m *Manager) Capacity() int64 { return m.capacity }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats zeroes the counters (the cursor and residency are kept, so a
// warmed-up buffer can be measured in steady state).
func (m *Manager) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
}
