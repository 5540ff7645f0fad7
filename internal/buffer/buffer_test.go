package buffer

import (
	"math/rand"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/schedule"
)

// fixture builds a pattern, a store pre-populated with one unit per
// mode-partition, and a unit byte size (uniform across units).
func fixture(t *testing.T, dims, k []int, rank int) (*grid.Pattern, *blockstore.MemStore, int64) {
	t.Helper()
	p := grid.MustNew(dims, k)
	store := blockstore.NewMemStore()
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

func TestPolicyStringParse(t *testing.T) {
	for _, p := range Policies {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: %v %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("belady"); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestNewManagerValidation(t *testing.T) {
	p, store, _ := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	cases := []Config{
		{Store: nil, Pattern: p, CapacityBytes: 1},
		{Store: store, Pattern: nil, CapacityBytes: 1},
		{Store: store, Pattern: p, CapacityBytes: 0},
		{Store: store, Pattern: p, CapacityBytes: 1, Policy: Forward}, // no schedule
	}
	for i, cfg := range cases {
		if _, err := NewManager(cfg); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestAcquireHitAndMiss(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 10 * ub, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	u, err := m.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Mode != 0 || u.Part != 0 {
		t.Fatalf("acquired wrong unit %d/%d", u.Mode, u.Part)
	}
	m.Release(0, 0, false)
	if _, err := m.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	m.Release(0, 0, false)
	st := m.Stats()
	if st.Fetches != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !m.Contains(0, 0) || m.Contains(1, 1) {
		t.Fatal("residency wrong")
	}
}

func TestEvictionRespectsCapacity(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 2 * ub, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	order := []schedule.Access{
		{Mode: 0, Part: 0}, {Mode: 0, Part: 1}, {Mode: 1, Part: 0},
	}
	for _, a := range order {
		if _, err := m.Acquire(a.Mode, a.Part); err != nil {
			t.Fatal(err)
		}
		m.Release(a.Mode, a.Part, false)
	}
	if m.UsedBytes() > m.Capacity() {
		t.Fatalf("used %d > capacity %d", m.UsedBytes(), m.Capacity())
	}
	// LRU: (0,0) is the oldest, must be gone.
	if m.Contains(0, 0) {
		t.Fatal("LRU should have evicted the oldest unit")
	}
	if !m.Contains(0, 1) || !m.Contains(1, 0) {
		t.Fatal("newer units should be resident")
	}
	if st := m.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
}

func TestPinnedUnitsAreNotEvicted(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 1 * ub, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	// Still pinned; acquiring another unit overflows rather than evicting.
	if _, err := m.Acquire(0, 1); err != nil {
		t.Fatal(err)
	}
	if !m.Contains(0, 0) {
		t.Fatal("pinned unit was evicted")
	}
	if st := m.Stats(); st.Overflows == 0 {
		t.Fatal("overflow not counted")
	}
	m.Release(0, 0, false)
	m.Release(0, 1, false)
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 1 * ub, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	u, err := m.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	u.A.Set(0, 0, 777)
	m.Release(0, 0, true)
	// Force eviction of (0,0).
	if _, err := m.Acquire(0, 1); err != nil {
		t.Fatal(err)
	}
	m.Release(0, 1, false)
	got, err := store.Get(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.A.At(0, 0) != 777 {
		t.Fatal("dirty eviction did not write back")
	}
	if st := m.Stats(); st.WriteBacks != 1 {
		t.Fatalf("write-backs = %d", st.WriteBacks)
	}
}

func TestCleanEvictionSkipsWriteBack(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 1 * ub, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	m.Release(0, 0, false)
	if _, err := m.Acquire(0, 1); err != nil {
		t.Fatal(err)
	}
	m.Release(0, 1, false)
	if st := m.Stats(); st.WriteBacks != 0 {
		t.Fatalf("clean eviction wrote back: %+v", st)
	}
}

func TestFlushAll(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 10 * ub, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	u, err := m.Acquire(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	u.A.Set(0, 0, -5)
	m.Release(1, 1, true)
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.A.At(0, 0) != -5 {
		t.Fatal("FlushAll did not persist")
	}
	// Second flush is a no-op (entry now clean).
	before := m.Stats().WriteBacks
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.WriteBacks != before {
		t.Fatal("FlushAll rewrote clean units")
	}
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	m, _ := NewManager(Config{Store: store, Pattern: p, CapacityBytes: ub, Policy: LRU})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Release(0, 0, false)
}

// cyclicScan drives the manager through full cycles of the access string
// and returns fetches observed after a warm-up cycle.
func cyclicScan(t *testing.T, m *Manager, accesses []schedule.Access, cycles int) int64 {
	t.Helper()
	// Warm-up cycle.
	for _, a := range accesses {
		if _, err := m.Acquire(a.Mode, a.Part); err != nil {
			t.Fatal(err)
		}
		m.Release(a.Mode, a.Part, false)
	}
	warm := m.Stats().Fetches
	for c := 0; c < cycles; c++ {
		for _, a := range accesses {
			if _, err := m.Acquire(a.Mode, a.Part); err != nil {
				t.Fatal(err)
			}
			m.Release(a.Mode, a.Part, false)
		}
	}
	return m.Stats().Fetches - warm
}

func TestLRUCyclicPathology(t *testing.T) {
	// A cyclic scan of ΣK=12 units with room for 8: LRU misses on every
	// access (the classic sequential-flooding pathology the paper exploits
	// to motivate MRU/FOR).
	p, store, ub := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
	sched := schedule.New(schedule.ModeCentric, p)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 8 * ub, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	fetches := cyclicScan(t, m, sched.AccessString(), 4)
	if fetches != 4*12 {
		t.Fatalf("LRU cyclic fetches = %d, want 48 (all misses)", fetches)
	}
}

func TestMRUBeatsLRUOnCyclicScan(t *testing.T) {
	p, _, ub := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
	sched := schedule.New(schedule.ModeCentric, p)
	run := func(pol Policy) int64 {
		_, store, _ := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
		m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 8 * ub, Policy: pol, Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		return cyclicScan(t, m, sched.AccessString(), 4)
	}
	lru, mru := run(LRU), run(MRU)
	if mru >= lru {
		t.Fatalf("MRU (%d) should beat LRU (%d) on a cyclic scan", mru, lru)
	}
	// MRU steady state on a cyclic scan of M units with capacity C keeps a
	// stable prefix resident: misses per cycle = M - C.
	if mru != 4*(12-8) {
		t.Fatalf("MRU fetches = %d, want %d", mru, 4*(12-8))
	}
}

func TestForwardIsOptimalOnCyclicScan(t *testing.T) {
	// On a pure cyclic scan Belady = MRU (keep a prefix resident), so FOR
	// must match MRU and beat LRU.
	p, _, ub := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
	sched := schedule.New(schedule.ModeCentric, p)
	run := func(pol Policy) int64 {
		_, store, _ := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
		m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 8 * ub, Policy: pol, Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		return cyclicScan(t, m, sched.AccessString(), 4)
	}
	forward, mru := run(Forward), run(MRU)
	if forward > mru {
		t.Fatalf("FOR (%d) should not lose to MRU (%d)", forward, mru)
	}
}

func TestForwardBeatsLRUOnBlockSchedule(t *testing.T) {
	// The paper's headline: on block-centric schedules with a tight
	// buffer, FOR needs fewer swaps than LRU.
	p, _, ub := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
	sched := schedule.New(schedule.ZOrder, p)
	run := func(pol Policy) int64 {
		_, store, _ := fixture(t, []int{16, 16, 16}, []int{4, 4, 4}, 2)
		m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 4 * ub, Policy: pol, Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		return cyclicScan(t, m, sched.AccessString(), 3)
	}
	if f, l := run(Forward), run(LRU); f >= l {
		t.Fatalf("FOR (%d) should beat LRU (%d) on Z-order", f, l)
	}
}

func TestForwardCursorConformance(t *testing.T) {
	p, store, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	sched := schedule.New(schedule.FiberOrder, p)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 4 * ub, Policy: Forward, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	// First scheduled access is block (0,0) → unit (0,0); acquiring
	// anything else must fail loudly.
	if _, err := m.Acquire(1, 1); err == nil {
		t.Fatal("off-schedule access should error under Forward")
	}
	if _, err := m.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	m.Release(0, 0, false)
}
