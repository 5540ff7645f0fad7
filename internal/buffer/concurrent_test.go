package buffer

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"twopcp/internal/blockstore"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/schedule"
)

// fileFixture mirrors fixture over a FileStore for genuinely out-of-core
// concurrency tests.
func fileFixture(t *testing.T, dims, k []int, rank int) (*grid.Pattern, *blockstore.FileStore, int64) {
	t.Helper()
	p := grid.MustNew(dims, k)
	store, err := blockstore.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var unitBytes int64
	for i := 0; i < p.NModes(); i++ {
		for ki := 0; ki < p.K[i]; ki++ {
			_, rows := p.ModeRange(i, ki)
			u := &blockstore.Unit{Mode: i, Part: ki, A: mat.Random(rows, rank, rng), U: map[int]*mat.Matrix{}}
			for _, id := range p.Slab(i, ki) {
				u.U[id] = mat.Random(rows, rank, rng)
			}
			if err := store.Put(u); err != nil {
				t.Fatal(err)
			}
			unitBytes = u.Bytes()
		}
	}
	store.ResetStats()
	return p, store, unitBytes
}

// hammerManager drives the manager the way the Phase-2 engine does — one
// goroutine acquiring a few units, hinting prefetches, dirtying and
// releasing them — with a tight capacity, while the prefetch goroutines
// fetch. Every unit must then hold its last written value in the store.
// Run with -race: it checks the prefetch goroutines' hand-off to the
// owner.
func hammerManager(t *testing.T, p *grid.Pattern, store blockstore.Store, capacity int64, rank int) {
	t.Helper()
	m, err := NewManager(Config{
		Store: store, Pattern: p, CapacityBytes: capacity,
		Policy: LRU, Workers: 3, Rank: rank,
	})
	if err != nil {
		t.Fatal(err)
	}
	units := schedule.NumUnits(p)
	rng := rand.New(rand.NewSource(1))
	want := make(map[int]float64) // unit id → last value written to A[0,0]
	var acquires int64
	for i := 0; i < 300; i++ {
		ids := make([]int, 1+rng.Intn(3))
		dirty := make([]bool, len(ids))
		for j := range ids {
			ids[j] = rng.Intn(units)
			mode, part := schedule.UnitFromID(p, ids[j])
			u, err := m.Acquire(mode, part)
			if err != nil {
				t.Fatal(err)
			}
			if u.Mode != mode || u.Part != part {
				t.Fatalf("acquired ⟨%d,%d⟩, got ⟨%d,%d⟩", mode, part, u.Mode, u.Part)
			}
			acquires++
			if dirty[j] = rng.Intn(2) == 0; dirty[j] {
				u.A.Set(0, 0, float64(i*10+j))
				want[ids[j]] = float64(i*10 + j)
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			m.Prefetch(schedule.UnitFromID(p, rng.Intn(units)))
		}
		for j, id := range ids {
			mode, part := schedule.UnitFromID(p, id)
			m.Release(mode, part, dirty[j])
		}
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Fetches+st.Hits != acquires {
		t.Fatalf("fetches %d + hits %d != acquires %d", st.Fetches, st.Hits, acquires)
	}
	for id := 0; id < units; id++ {
		mode, part := schedule.UnitFromID(p, id)
		u, err := store.Get(mode, part)
		if err != nil {
			t.Fatalf("unit ⟨%d,%d⟩ unreadable after the run: %v", mode, part, err)
		}
		if u.A == nil || u.Slab == nil || u.Slab.Cols != p.SlabSize(mode)*u.A.Cols {
			t.Fatalf("unit ⟨%d,%d⟩ malformed after the run", mode, part)
		}
		if v, ok := want[id]; ok && u.A.At(0, 0) != v {
			t.Fatalf("unit ⟨%d,%d⟩: A[0,0] = %g, want the last write %g", mode, part, u.A.At(0, 0), v)
		}
	}
}

func TestConcurrentAcquirePrefetchReleaseMemStore(t *testing.T) {
	p, store, ub := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
	hammerManager(t, p, store, 5*ub, 2)
}

func TestConcurrentAcquirePrefetchReleaseFileStore(t *testing.T) {
	p, store, ub := fileFixture(t, []int{12, 12, 12}, []int{3, 3, 3}, 2)
	hammerManager(t, p, store, 4*ub, 2)
}

// countingStore sleeps in every Get and records the most Gets it saw in
// flight at once.
type countingStore struct {
	blockstore.Store
	cur, peak atomic.Int64
}

func (s *countingStore) Get(mode, part int) (*blockstore.Unit, error) {
	n := s.cur.Add(1)
	defer s.cur.Add(-1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	time.Sleep(2 * time.Millisecond)
	return s.Store.Get(mode, part)
}

// TestPrefetchReadsBoundedByWorkers: every unit is hinted at once and every
// hint is admitted, yet the store never sees more than Workers prefetch
// Gets in flight.
func TestPrefetchReadsBoundedByWorkers(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p, mem, ub := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
		store := &countingStore{Store: mem}
		m, err := NewManager(Config{
			Store: store, Pattern: p, CapacityBytes: 100 * ub,
			Policy: LRU, Workers: workers, Rank: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		units := schedule.NumUnits(p)
		for id := 0; id < units; id++ {
			m.Prefetch(schedule.UnitFromID(p, id))
		}
		m.Drain()
		if got := m.Stats().Prefetches; got != int64(units) {
			t.Fatalf("workers=%d: %d hints admitted, want all %d", workers, got, units)
		}
		if peak := store.peak.Load(); peak > int64(workers) {
			t.Fatalf("workers=%d: %d prefetch Gets were in flight at once", workers, peak)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPrefetchStagesUnitWithoutTouchingStats(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	m, err := NewManager(Config{
		Store: store, Pattern: p, CapacityBytes: 10 * ub,
		Policy: LRU, Workers: 2, Rank: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Prefetch(0, 0)
	m.Drain()
	if !m.InFlight(0, 0) || m.Contains(0, 0) {
		t.Fatal("prefetched unit should be staged in flight, not resident")
	}
	if st := m.Stats(); st.Fetches != 0 || st.Hits != 0 || st.Prefetches != 1 {
		t.Fatalf("prefetch leaked into logical stats: %+v", st)
	}
	// The Acquire consumes the staged bytes but still classifies the
	// access as a miss: the swap count is prefetch-invariant.
	u, err := m.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Mode != 0 || u.Part != 0 {
		t.Fatalf("wrong unit %d/%d", u.Mode, u.Part)
	}
	m.Release(0, 0, false)
	if st := m.Stats(); st.Fetches != 1 || st.Hits != 0 {
		t.Fatalf("consume should count as one fetch: %+v", st)
	}
	if got := store.Stats().Reads; got != 1 {
		t.Fatalf("store reads = %d, want 1 (prefetch and acquire share one read)", got)
	}
	if m.InFlight(0, 0) || !m.Contains(0, 0) {
		t.Fatal("consume should move the unit from in-flight to resident")
	}
}

func TestPrefetchHintsDoNotChangeLogicalStats(t *testing.T) {
	// The same schedule-ordered workload, with and without prefetch hints,
	// must produce identical replacement behaviour: prefetching is pure
	// data movement.
	logical := func(s Stats) [5]int64 {
		return [5]int64{s.Fetches, s.Hits, s.Evictions, s.WriteBacks, s.Overflows}
	}
	p, _, ub := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
	sched := schedule.New(schedule.HilbertOrder, p)
	accesses := sched.AccessString()
	run := func(workers, depth int) [5]int64 {
		_, store, _ := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
		m, err := NewManager(Config{
			Store: store, Pattern: p, CapacityBytes: 6 * ub,
			Policy: Forward, Schedule: sched, Workers: workers, Rank: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 3; c++ {
			for i, a := range accesses {
				for d := 1; d <= depth; d++ {
					na := accesses[(i+d)%len(accesses)]
					m.Prefetch(na.Mode, na.Part)
				}
				if _, err := m.Acquire(a.Mode, a.Part); err != nil {
					t.Fatal(err)
				}
				m.Release(a.Mode, a.Part, true)
			}
		}
		if err := m.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return logical(m.Stats())
	}
	sync0 := run(0, 0)
	async0 := run(3, 0)
	async4 := run(3, 4)
	if sync0 != async0 {
		t.Fatalf("async write-back changed logical stats: sync %v, async %v", sync0, async0)
	}
	if sync0 != async4 {
		t.Fatalf("prefetch hints changed logical stats: sync %v, prefetch %v", sync0, async4)
	}
}

func TestBackgroundWriteBackBarrier(t *testing.T) {
	// A re-fetch right after a slow write-back must see the written-back
	// data, not the stale store copy.
	p, mem, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	slow := blockstore.WithLatency(mem, 0, 5*time.Millisecond)
	m, err := NewManager(Config{
		Store: slow, Pattern: p, CapacityBytes: 1 * ub,
		Policy: LRU, Workers: 2, Rank: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	u, err := m.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	u.A.Set(0, 0, 424242)
	m.Release(0, 0, true)
	// Evict ⟨0,0⟩ (capacity is one unit); its write-back takes 5ms, then
	// we immediately demand the unit again.
	if _, err := m.Acquire(0, 1); err != nil {
		t.Fatal(err)
	}
	m.Release(0, 1, false)
	got, err := m.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.A.At(0, 0) != 424242 {
		t.Fatalf("re-fetch observed stale data: A[0,0] = %g, want 424242", got.A.At(0, 0))
	}
	m.Release(0, 0, false)
}

func TestWorkersRequireRank(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	if _, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: ub, Policy: LRU, Workers: 2}); err == nil {
		t.Fatal("Workers > 0 without Rank should fail")
	}
	if _, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: ub, Policy: LRU, Workers: -1}); err == nil {
		t.Fatal("negative Workers should fail")
	}
}

func TestCloseIsIdempotentAndStopsPrefetch(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	m, err := NewManager(Config{
		Store: store, Pattern: p, CapacityBytes: 4 * ub,
		Policy: LRU, Workers: 2, Rank: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Prefetch(0, 0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m.Prefetch(0, 1) // no-op after Close, must not panic or leak
	if st := store.Stats(); st.Reads > 1 {
		t.Fatalf("post-Close prefetch reached the store: %+v", st)
	}
}

func TestSynchronousManagerIgnoresPrefetch(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 4 * ub, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	m.Prefetch(0, 0)
	m.Drain()
	if m.InFlight(0, 0) || store.Stats().Reads != 0 {
		t.Fatal("Workers: 0 manager must ignore prefetch hints")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
