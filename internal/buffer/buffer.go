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
// A Manager has one owner: the goroutine that drives it makes every call,
// the accessors (Contains, InFlight, UsedBytes, Stats) included, and no
// call takes a lock. When Config.Workers > 0, Prefetch admits a hint by
// reserving capacity and starting one goroutine for it. That goroutine
// runs one store Get while holding one of Workers semaphore slots, so at
// most Workers prefetch reads are in flight; it writes only its own
// in-flight record and then closes the record's done channel. The owner
// reads the record only after receiving from done. Every write-back — on
// eviction and in FlushAll — is one inline Put on the owner's goroutine.
// Replacement decisions — hit/miss classification, eviction victims, the
// schedule cursor and every Stats counter — are made inside Acquire, so a
// schedule-ordered sequence of Acquire/Release calls produces bit-for-bit
// identical statistics whether prefetching is on or off; prefetching only
// moves the bytes earlier.
//
// # Checkpoints
//
// Snapshot returns the manager's replacement state as one State value —
// resident units in recency order, the Forward cursor, the statistics —
// and Restore installs it in a fresh manager, after which every
// hit/miss/eviction decision matches the manager it was taken from. A
// Phase-2 checkpoint stores the State verbatim (runstate.BufferState).
package buffer

import (
	"fmt"
	"sort"
	"sync"

	"twopcp/internal/blockstore"
	"twopcp/internal/grid"
	"twopcp/internal/obs"
	"twopcp/internal/schedule"
)

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

// inflight is one prefetch. Its goroutine writes unit and err exactly
// once and then closes done; the owner reads them only after <-done.
type inflight struct {
	done  chan struct{}
	unit  *blockstore.Unit
	err   error
	bytes int64 // capacity reservation held until Acquire consumes the record
}

// Manager is the buffer manager. See the package comment for the
// concurrency contract.
type Manager struct {
	store    blockstore.Store
	pattern  *grid.Pattern
	capacity int64
	policy   Policy
	rank     int

	resident map[int]*entry // unit id → entry
	used     int64
	reserved int64 // bytes of in-flight prefetch reservations
	clock    int64
	stats    Stats

	// infl holds prefetches in progress: a unit is in at most one of
	// resident/infl. Completed prefetches stay here until an Acquire
	// consumes them.
	infl map[int]*inflight

	// sem bounds the prefetch reads in flight to Workers; nil when the
	// manager is synchronous or closed, which makes Prefetch a no-op.
	sem  chan struct{}
	ioWG sync.WaitGroup // outstanding prefetches

	// Telemetry. The counters mirror the Stats fields into the observer's
	// registry; trace events are emitted where Acquire and FlushAll decide,
	// so the package's prefetch-transparency contract makes them
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
	// Workers bounds the prefetch reads in flight at once. 0 (the default)
	// keeps the manager fully synchronous, exactly the paper's sequential
	// setting: Prefetch is a no-op. Dirty evictions write back inline at
	// every setting.
	Workers int
	// Rank is the decomposition rank, used to estimate unit sizes for
	// prefetch capacity reservations. Required when Workers > 0.
	Rank int
	// Obs receives telemetry (buffer.fetch/evict/writeback trace events
	// and mirrored counters). Nil disables it at ~zero cost.
	Obs *obs.Observer
}

// Check validates the settings that do not depend on a store, a pattern or
// a schedule: the policy, the capacity and the prefetch bound. NewManager
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
		store:    cfg.Store,
		pattern:  cfg.Pattern,
		capacity: cfg.CapacityBytes,
		policy:   cfg.Policy,
		rank:     cfg.Rank,
		resident: make(map[int]*entry),
		infl:     make(map[int]*inflight),

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
	if cfg.Workers > 0 {
		m.sem = make(chan struct{}, cfg.Workers)
	}
	return m, nil
}

// Prefetch asks the manager to stage unit ⟨mode, part⟩ for an upcoming
// Acquire. It is a hint: it never blocks on store I/O, never evicts, and
// has no effect on replacement decisions or statistics other than
// Stats.Prefetches — the later Acquire still classifies the access as a
// miss and counts the swap, it just finds the bytes already (or nearly)
// there. The fetch runs on its own goroutine after reserving capacity;
// the reservation is held until the Acquire consumes the record, failed
// or not, so resident + staged data never exceeds two buffers' worth. The
// hint is dropped when the unit is resident, already in flight, the
// reservation budget is exhausted, or the manager is synchronous
// (Workers: 0) or closed.
func (m *Manager) Prefetch(mode, part int) {
	if m.sem == nil {
		return
	}
	id := schedule.UnitID(m.pattern, mode, part)
	est := schedule.UnitBytes(m.pattern, mode, part, m.rank)
	if m.resident[id] != nil || m.infl[id] != nil || m.reserved+est > m.capacity {
		return
	}
	inf := &inflight{done: make(chan struct{}), bytes: est}
	m.infl[id] = inf
	m.reserved += est
	m.stats.Prefetches++
	m.cPrefetches.Inc()
	m.ioWG.Add(1)
	go func(store blockstore.Store, sem chan struct{}) {
		defer m.ioWG.Done()
		sem <- struct{}{}
		inf.unit, inf.err = store.Get(mode, part)
		<-sem
		close(inf.done)
	}(m.store, m.sem)
}

// Acquire pins the unit ⟨mode, part⟩ in the buffer, fetching it from the
// store on a miss (possibly evicting). Every call advances the schedule
// cursor, so callers must acquire units in exactly the schedule's access
// order when using the Forward policy. A miss whose unit is in flight from
// a Prefetch waits for that fetch instead of reading the store again; it
// still counts as a fetch ("data swap") because the buffer did not hold
// the unit when it was demanded. A failed prefetch degrades to a fresh
// fetch here: a hint is never worse than no hint. A dirty victim is
// written back before Acquire returns, and a write-back that fails is
// Acquire's error. The unit is the caller's to use until the matching
// Release: once evicted, its storage is recycled into a later fetch.
func (m *Manager) Acquire(mode, part int) (*blockstore.Unit, error) {
	id := schedule.UnitID(m.pattern, mode, part)
	m.clock++
	pos := m.cursor
	if len(m.cycle) > 0 {
		if m.cycle[pos] != id {
			return nil, fmt.Errorf("buffer: access ⟨%d,%d⟩ deviates from schedule position %d", mode, part, pos)
		}
		m.cursor = (m.cursor + 1) % len(m.cycle)
	}
	if e, ok := m.resident[id]; ok {
		e.lastUsed = m.clock
		e.pins++
		m.stats.Hits++
		m.cHits.Inc()
		return e.unit, nil
	}
	var u *blockstore.Unit
	if inf := m.infl[id]; inf != nil {
		<-inf.done
		delete(m.infl, id)
		m.reserved -= inf.bytes
		if inf.err != nil {
			m.stats.DegradedFetches++
			m.cDegraded.Inc()
		}
		u = inf.unit
	}
	if u == nil {
		var err error
		u, err = m.store.Get(mode, part)
		if err != nil {
			return nil, err
		}
	}
	e := &entry{unit: u, bytes: u.Bytes(), lastUsed: m.clock, pins: 1}
	m.resident[id] = e
	m.used += e.bytes
	m.stats.Fetches++
	m.cFetches.Inc()
	m.gUsed.Set(float64(m.used))
	if m.tele.Tracing() {
		m.tele.Emit("buffer.fetch",
			obs.Int("mode", mode), obs.Int("part", part), obs.I64("bytes", e.bytes))
	}
	if err := m.shrink(pos); err != nil {
		return nil, err
	}
	return e.unit, nil
}

// Release unpins a previously acquired unit; dirty marks it modified so
// eviction (or FlushAll) writes it back.
func (m *Manager) Release(mode, part int, dirty bool) {
	id := schedule.UnitID(m.pattern, mode, part)
	e, ok := m.resident[id]
	if !ok || e.pins <= 0 {
		panic(fmt.Sprintf("buffer: Release of unpinned unit ⟨%d,%d⟩", mode, part))
	}
	e.pins--
	if dirty {
		e.dirty = true
	}
}

// shrink evicts unpinned units until usage fits capacity. If everything
// resident is pinned the buffer temporarily overflows (counted, not fatal),
// mirroring a real buffer manager that must keep its working set.
func (m *Manager) shrink(pos int) error {
	for m.used > m.capacity {
		victim := m.pickVictim(pos)
		if victim == -1 {
			m.stats.Overflows++
			m.cOverflows.Inc()
			return nil
		}
		if err := m.evict(victim); err != nil {
			return err
		}
	}
	return nil
}

// pickVictim returns the unit id to evict, or -1 when nothing is evictable.
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

// evict drops the unit and recycles its allocation, writing a dirty unit
// back first. The victim stays resident until it is written, and a failed
// write-back leaves it so.
func (m *Manager) evict(id int) error {
	e := m.resident[id]
	if e.dirty {
		m.noteWriteBack(e)
		if err := m.writeBack(e.unit); err != nil {
			return err
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
	// Nothing refers to an evicted unit once it is written back: callers
	// keep one only while it is pinned.
	e.unit.Recycle()
	return nil
}

// noteWriteBack counts a write-back of e — in Stats, the mirrored counter
// and the trace — before its Put, so the counts do not depend on I/O
// outcomes.
func (m *Manager) noteWriteBack(e *entry) {
	m.stats.WriteBacks++
	m.cWriteBacks.Inc()
	if m.tele.Tracing() {
		m.tele.Emit("buffer.writeback",
			obs.Int("mode", e.unit.Mode), obs.Int("part", e.unit.Part), obs.I64("bytes", e.bytes))
	}
}

// writeBack puts the unit's A part — all Phase 2 ever changes of a unit;
// the store keeps the U part the unit was seeded with. One Put, on both
// paths (eviction, FlushAll): whether a transient failure is retried is
// the store's business (blockstore.Resilient), so the retry budget is the
// same at every Workers setting.
func (m *Manager) writeBack(u *blockstore.Unit) error {
	return m.store.Put(&blockstore.Unit{Mode: u.Mode, Part: u.Part, A: u.A})
}

// Drain blocks until every prefetch has settled.
func (m *Manager) Drain() {
	m.ioWG.Wait()
}

// FlushAll writes every dirty resident unit back to the store, in unit-id
// order (deterministic store traffic), keeping it resident and clean.
// Phase 2 calls this at termination. It drains the prefetches first, so
// the store is quiet when it returns.
func (m *Manager) FlushAll() error {
	m.Drain()
	ids := make([]int, 0, len(m.resident))
	for id := range m.resident {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := m.resident[id]
		if !e.dirty {
			continue
		}
		m.noteWriteBack(e)
		if err := m.writeBack(e.unit); err != nil {
			return err
		}
		e.dirty = false
	}
	return nil
}

// Close drains the prefetches, discards the unconsumed ones and turns
// Prefetch into a no-op. It returns nil: every write-back error has
// already surfaced from the Acquire or FlushAll that issued it. Close is
// idempotent; the manager must not be used afterwards (except further
// Close calls).
func (m *Manager) Close() error {
	m.Drain()
	m.sem = nil
	m.infl = make(map[int]*inflight)
	m.reserved = 0
	return nil
}

// Contains reports whether the unit is resident (for tests/diagnostics).
func (m *Manager) Contains(mode, part int) bool {
	_, ok := m.resident[schedule.UnitID(m.pattern, mode, part)]
	return ok
}

// InFlight reports whether a prefetch of the unit is outstanding or staged
// but not yet consumed (for tests/diagnostics).
func (m *Manager) InFlight(mode, part int) bool {
	_, ok := m.infl[schedule.UnitID(m.pattern, mode, part)]
	return ok
}

// UsedBytes returns the resident payload volume.
func (m *Manager) UsedBytes() int64 { return m.used }

// Capacity returns the configured capacity in bytes.
func (m *Manager) Capacity() int64 { return m.capacity }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats { return m.stats }
