package buffer

import (
	"errors"
	"math/rand"
	"sync"
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

// hammerManager drives parallel Acquire/Prefetch/Release (the satellite
// race test): goroutines race over all units with a tight capacity and
// dirty releases, then the buffer is flushed and every unit must still be
// complete in the store. Run with -race.
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
	var wg sync.WaitGroup
	var acquires int64
	var amu sync.Mutex
	// Two workers may hold the same unit pinned; the engine updates a unit
	// from one goroutine, so the test's stand-in for an update takes turns.
	var updating sync.Mutex
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			local := int64(0)
			for i := 0; i < 150; i++ {
				id := rng.Intn(units)
				mode, part := schedule.UnitFromID(p, id)
				if rng.Intn(3) == 0 {
					m.Prefetch(mode, part)
					continue
				}
				u, err := m.Acquire(mode, part)
				if err != nil {
					t.Error(err)
					return
				}
				if u.Mode != mode || u.Part != part {
					t.Errorf("acquired ⟨%d,%d⟩, got ⟨%d,%d⟩", mode, part, u.Mode, u.Part)
				}
				dirty := rng.Intn(2) == 0
				if dirty {
					updating.Lock()
					u.A.Set(0, 0, float64(w*1000+i))
					updating.Unlock()
				}
				local++
				m.Release(mode, part, dirty)
			}
			amu.Lock()
			acquires += local
			amu.Unlock()
		}(w)
	}
	wg.Wait()
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
	// Every unit survived the storm complete.
	for i := 0; i < p.NModes(); i++ {
		for ki := 0; ki < p.K[i]; ki++ {
			u, err := store.Get(i, ki)
			if err != nil {
				t.Fatalf("unit ⟨%d,%d⟩ unreadable after concurrent run: %v", i, ki, err)
			}
			if u.A == nil || u.Slab == nil || u.Slab.Cols != p.SlabSize(i)*u.A.Cols {
				t.Fatalf("unit ⟨%d,%d⟩ malformed after concurrent run", i, ki)
			}
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
	// A re-fetch racing a slow background write-back must see the
	// written-back data, not the stale store copy.
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
	// Evict ⟨0,0⟩ (capacity is one unit); its write-back runs behind a
	// 5ms latency while we immediately demand the unit again.
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

func TestAsyncWriteBackErrorSurfaces(t *testing.T) {
	p, mem, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	faulty := blockstore.NewFaultyStore(mem)
	faulty.SetPlan(blockstore.FaultPlan{WriteOutageFrom: 1, WriteOutageLen: 1, Permanent: true})
	m, err := NewManager(Config{
		Store: faulty, Pattern: p, CapacityBytes: 1 * ub,
		Policy: LRU, Workers: 2, Rank: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := m.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	u.A.Set(0, 0, 1)
	m.Release(0, 0, true)
	if _, err := m.Acquire(0, 1); err != nil { // evicts ⟨0,0⟩, write-back fails in background
		t.Fatal(err)
	}
	m.Release(0, 1, false)
	m.Drain()
	if err := m.FlushAll(); !errors.Is(err, blockstore.ErrInjected) {
		t.Fatalf("FlushAll err = %v, want injected write fault", err)
	}
	if err := m.Close(); !errors.Is(err, blockstore.ErrInjected) {
		t.Fatalf("Close err = %v, want injected write fault", err)
	}
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
