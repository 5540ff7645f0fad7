package buffer

import (
	"fmt"
	"testing"
	"time"

	"twopcp/internal/blockstore"
	"twopcp/internal/obs"
	"twopcp/internal/schedule"
)

// TestDegradedPrefetchFallsBackToSyncFetch: a prefetch whose background
// fetch fails must never be worse than no prefetch — Acquire degrades to
// a fresh synchronous fetch and succeeds, counting DegradedFetches. That
// holds however many prefetches failed before: eight that exhaust the
// retry layer's budget leave the next demand fetches over the healed
// store a full budget each.
func TestDegradedPrefetchFallsBackToSyncFetch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retries int
		plan    blockstore.FaultPlan
		units   int // prefetched, then acquired, in unit-id order
	}{
		// Read 1 is the prefetch's background read.
		{"one permanent", 0, blockstore.FaultPlan{ReadOutageFrom: 1, ReadOutageLen: 1, Permanent: true}, 1},
		// Reads 1..16 are the eight prefetches' two attempts each.
		{"eight past the budget", 1, blockstore.FaultPlan{ReadOutageFrom: 1, ReadOutageLen: 16}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, mem, ub := fixture(t, []int{8, 8}, []int{4, 4}, 2)
			faulty := blockstore.NewFaultyStore(mem)
			faulty.SetPlan(tc.plan)
			reg := obs.NewRegistry()
			m, err := NewManager(Config{
				Store: resilient(faulty, tc.retries), Pattern: p, CapacityBytes: 10 * ub,
				Policy: LRU, Workers: 2, Rank: 2,
				Obs: &obs.Observer{Metrics: reg},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			for i := 0; i < tc.units; i++ {
				m.Prefetch(i/4, i%4)
			}
			m.Drain()
			for i := 0; i < tc.units; i++ {
				u, err := m.Acquire(i/4, i%4)
				if err != nil {
					t.Fatalf("Acquire ⟨%d,%d⟩ after failed prefetch: %v", i/4, i%4, err)
				}
				if u.Mode != i/4 || u.Part != i%4 {
					t.Fatalf("acquired wrong unit ⟨%d,%d⟩", u.Mode, u.Part)
				}
				m.Release(i/4, i%4, false)
			}
			want := int64(tc.units)
			st := m.Stats()
			if st.DegradedFetches != want {
				t.Fatalf("DegradedFetches = %d, want %d", st.DegradedFetches, want)
			}
			if got := reg.Counter("buffer.degraded_fetches").Load(); got != want {
				t.Fatalf("buffer.degraded_fetches counter = %d, want %d", got, want)
			}
			if st.Fetches != want {
				t.Fatalf("Fetches = %d, want %d (the successful demand fetches)", st.Fetches, want)
			}
		})
	}
}

// TestDegradedFetchSurfacesDemandError: when the degraded synchronous
// re-fetch also fails, that error surfaces from Acquire (no livelock).
func TestDegradedFetchSurfacesDemandError(t *testing.T) {
	p, mem, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	faulty := blockstore.NewFaultyStore(mem)
	faulty.SetPlan(blockstore.FaultPlan{ReadOutageFrom: 1, ReadOutageLen: 1 << 40})
	m, err := NewManager(Config{
		Store: faulty, Pattern: p, CapacityBytes: 10 * ub,
		Policy: LRU, Workers: 2, Rank: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	m.Prefetch(0, 0)
	m.Drain()
	if _, err := m.Acquire(0, 0); !blockstore.IsTransient(err) {
		t.Fatalf("Acquire = %v, want the demand fetch's transient error", err)
	}
	if st := m.Stats(); st.DegradedFetches != 1 {
		t.Fatalf("DegradedFetches = %d, want 1", st.DegradedFetches)
	}
}

// TestDegradedAcquireReleasesReservation: a failed prefetch holds its
// capacity reservation until the Acquire that consumes it, which falls
// back to a fresh fetch; from then on the budget admits new hints again.
func TestDegradedAcquireReleasesReservation(t *testing.T) {
	p, mem, _ := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	faulty := blockstore.NewFaultyStore(mem)
	faulty.SetPlan(blockstore.FaultPlan{ReadOutageFrom: 1, ReadOutageLen: 1})
	m, err := NewManager(Config{
		Store: faulty, Pattern: p, CapacityBytes: schedule.UnitBytes(p, 0, 0, 2), // one reservation
		Policy: LRU, Workers: 2, Rank: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	m.Prefetch(0, 0) // read 1 fails
	m.Drain()
	m.Prefetch(0, 1)
	if m.InFlight(0, 1) {
		t.Fatal("a hint was admitted past the failed prefetch's reservation")
	}
	if _, err := m.Acquire(0, 0); err != nil {
		t.Fatalf("degraded Acquire: %v", err)
	}
	m.Release(0, 0, false)
	if st := m.Stats(); st.DegradedFetches != 1 {
		t.Fatalf("DegradedFetches = %d, want 1", st.DegradedFetches)
	}
	m.Prefetch(0, 1)
	if !m.InFlight(0, 1) {
		t.Fatal("the degraded Acquire did not release the failed prefetch's reservation")
	}
	m.Drain()
	if st := m.Stats(); st.Prefetches != 2 {
		t.Fatalf("Prefetches = %d, want 2", st.Prefetches)
	}
}

// resilient wraps s the way production does (storeStack): the store's
// retry layer owns the one retry budget, here without the backoff sleeps.
func resilient(s blockstore.Store, maxRetries int) *blockstore.ResilientStore {
	rs := blockstore.Resilient(s, maxRetries, 7, nil)
	rs.SetSleep(func(time.Duration) {})
	return rs
}

// TestWriteBackRetryHeals: a transient write outage shorter than the
// store's retry budget heals inside the evicting Acquire's write-back, and
// the written unit is intact in the store.
func TestWriteBackRetryHeals(t *testing.T) {
	p, mem, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
	faulty := blockstore.NewFaultyStore(mem)
	m, err := NewManager(Config{
		Store: resilient(faulty, 5), Pattern: p, CapacityBytes: 1 * ub, // capacity 1: every new unit evicts
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
	u.A.Set(0, 0, 42)
	m.Release(0, 0, true)

	// Writes 1..2 fail transiently; the write-back's retries absorb them.
	faulty.SetPlan(blockstore.FaultPlan{WriteOutageFrom: 1, WriteOutageLen: 2})
	if _, err := m.Acquire(0, 1); err != nil { // evicts dirty ⟨0,0⟩
		t.Fatal(err)
	}
	m.Release(0, 1, false)
	if err := m.FlushAll(); err != nil {
		t.Fatalf("FlushAll after healed write-back: %v", err)
	}
	got, err := mem.Get(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.A.At(0, 0) != 42 {
		t.Fatalf("written-back unit lost the dirty update: A[0,0] = %g", got.A.At(0, 0))
	}
	if _, writes := faulty.Fails(); writes != 2 {
		t.Fatalf("injected write failures = %d, want 2", writes)
	}
}

// TestWriteBackHasOneRetryBudget: a dirty eviction against a store that
// fails every write is the evicting Acquire's error, at every Workers
// setting, after exactly 1 + MaxRetries Put attempts — the retry layer is
// the only one that repeats a Put. The victim stays resident and dirty, so
// a flush over the healed store still writes its update.
func TestWriteBackHasOneRetryBudget(t *testing.T) {
	for _, workers := range []int{0, 2} {
		for _, retries := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("workers=%d/retries=%d", workers, retries), func(t *testing.T) {
				p, mem, ub := fixture(t, []int{4, 4}, []int{2, 2}, 2)
				faulty := blockstore.NewFaultyStore(mem)
				m, err := NewManager(Config{
					Store: resilient(faulty, retries), Pattern: p, CapacityBytes: 1 * ub,
					Policy: LRU, Workers: workers, Rank: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				u, err := m.Acquire(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				u.A.Set(0, 0, 42)
				m.Release(0, 0, true)
				faulty.SetPlan(blockstore.FaultPlan{WriteOutageFrom: 1, WriteOutageLen: 1 << 40})
				if _, err := m.Acquire(0, 1); !blockstore.IsTransient(err) { // evicts dirty ⟨0,0⟩
					t.Fatalf("evicting Acquire = %v, want the write-back's transient fault", err)
				}
				if _, writes := faulty.Fails(); writes != int64(1+retries) {
					t.Fatalf("the store saw %d Put attempts, want %d (1 + MaxRetries)", writes, 1+retries)
				}
				if !m.Contains(0, 0) {
					t.Fatal("a victim whose write-back failed was dropped")
				}
				faulty.SetPlan(blockstore.FaultPlan{})
				if err := m.FlushAll(); err != nil {
					t.Fatalf("FlushAll over the healed store: %v", err)
				}
				got, err := mem.Get(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got.A.At(0, 0) != 42 {
					t.Fatalf("flushed victim lost the dirty update: A[0,0] = %g", got.A.At(0, 0))
				}
			})
		}
	}
}

// TestConcurrentResilientSandwich is the satellite -race test: the full
// wrapper sandwich Resilient→Latency→Faulty→MemStore under a concurrent
// Acquire/Prefetch/Release storm with seeded transient faults. The retry
// layer heals every injected fault, so the hammer's integrity assertions
// (every unit complete after the storm) must hold.
func TestConcurrentResilientSandwich(t *testing.T) {
	p, mem, ub := fixture(t, []int{12, 12, 12}, []int{3, 3, 3}, 2)
	faulty := blockstore.NewFaultyStore(mem)
	faulty.SetPlan(blockstore.FaultPlan{Seed: 99, ReadRate: 0.05, WriteRate: 0.05})
	slow := blockstore.WithLatency(faulty, 20*time.Microsecond, 20*time.Microsecond)
	rs := blockstore.Resilient(slow, 20, 7, nil)
	hammerManager(t, p, rs, 4*ub, 2)
}

// TestConcurrentResilientSandwichFileStore mirrors the sandwich race test
// over a FileStore base.
func TestConcurrentResilientSandwichFileStore(t *testing.T) {
	p, store, ub := fileFixture(t, []int{8, 8, 8}, []int{2, 2, 2}, 2)
	defer store.Close()
	faulty := blockstore.NewFaultyStore(store)
	faulty.SetPlan(blockstore.FaultPlan{Seed: 3, ReadRate: 0.03, WriteRate: 0.03})
	slow := blockstore.WithLatency(faulty, 10*time.Microsecond, 10*time.Microsecond)
	rs := blockstore.Resilient(slow, 20, 11, nil)
	hammerManager(t, p, rs, 3*ub, 2)
}
