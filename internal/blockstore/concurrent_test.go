package blockstore

import (
	"errors"

	"math/rand"
	"sync"
	"testing"
	"time"

	"twopcp/internal/mat"
)

// seedVal fills the U of every mkUnit, so a reader can tell the seeded U
// from any A version a writer put.
const seedVal = -1

// mkUnit builds a small unit whose A encodes val, so readers can check
// they observed a complete, untorn version, and whose U holds seedVal.
func mkUnit(mode, part int, val float64) *Unit {
	a := mat.New(4, 3)
	u := mat.New(4, 3)
	for i := range a.Data {
		a.Data[i] = val
		u.Data[i] = seedVal
	}
	return &Unit{Mode: mode, Part: part, A: a, U: map[int]*mat.Matrix{7: u}}
}

// checkWhole fails if the unit's A mixes payload values (a torn read) or
// its U is anything but the seeded one.
func checkWhole(t *testing.T, u *Unit) {
	t.Helper()
	want := u.A.Data[0]
	for _, v := range u.A.Data {
		if v != want {
			t.Errorf("torn read: A mixes %g and %g", want, v)
			return
		}
	}
	if u.Slab == nil || len(u.Slab.Data) != 12 {
		t.Errorf("Get lost the seeded U: %v", u.Slab)
		return
	}
	for _, v := range u.Slab.Data {
		if v != seedVal {
			t.Errorf("U holds %g, want the seeded %g", v, float64(seedVal))
			return
		}
	}
}

// hammerStore drives the concurrent-use contract: the units are seeded
// once, then parallel writers replace their A parts with distinct payload
// versions while parallel readers assert every Get returns one complete A
// version with the seeded U, as a private copy.
func hammerStore(t *testing.T, store Store) {
	t.Helper()
	const units = 4
	for i := 0; i < units; i++ {
		if err := store.Put(mkUnit(0, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for version := 2; ; version++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := store.Put(aPart(mkUnit(0, rng.Intn(units), float64(version)))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 200; i++ {
				u, err := store.Get(0, rng.Intn(units))
				if err != nil {
					t.Error(err)
					return
				}
				checkWhole(t, u)
				// The copy is private: scribbling on it must not leak.
				u.A.Data[0] = -1e9
				u.Slab.Data[0] = -1e9
			}
		}(r)
	}
	// Readers finish, then writers are told to stop.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done

	st := store.Stats()
	if st.Reads < 4*200 {
		t.Fatalf("reads = %d, want ≥ %d", st.Reads, 4*200)
	}
	if st.Writes < units {
		t.Fatalf("writes = %d, want ≥ %d", st.Writes, units)
	}
}

func TestMemStoreConcurrentContract(t *testing.T) {
	hammerStore(t, NewMemStore())
}

func TestFileStoreConcurrentContract(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hammerStore(t, s)
}

func TestLatencyStoreConcurrentContract(t *testing.T) {
	hammerStore(t, WithLatency(NewMemStore(), time.Microsecond, time.Microsecond))
}

func TestFaultyStoreConcurrentCountsExactlyOneFault(t *testing.T) {
	inner := NewMemStore()
	if err := inner.Put(mkUnit(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	faulty := NewFaultyStore(inner)
	faulty.SetPlan(FaultPlan{ReadOutageFrom: 25, ReadOutageLen: 1, Permanent: true})
	var wg sync.WaitGroup
	var mu sync.Mutex
	injected := 0
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := faulty.Get(0, 0); errors.Is(err, ErrInjected) {
					mu.Lock()
					injected++
					mu.Unlock()
				} else if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if injected != 1 {
		t.Fatalf("injected faults observed = %d, want exactly 1", injected)
	}
	if reads, _ := faulty.Fails(); reads != 1 {
		t.Fatalf("injected read failures = %d, want 1", reads)
	}
}

// TestConcurrentStatsSnapshotsAreConsistent checks Stats never tears: the
// byte counters move together with the op counters.
func TestConcurrentStatsSnapshotsAreConsistent(t *testing.T) {
	store := NewMemStore()
	u := mkUnit(0, 0, 1)
	per := u.Bytes()
	if err := store.Put(u); err != nil {
		t.Fatal(err)
	}
	store.ResetStats()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := store.Get(0, 0); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		st := store.Stats()
		if st.BytesRead != st.Reads*per {
			t.Fatalf("torn stats: %d reads but %d bytes (unit is %d bytes)", st.Reads, st.BytesRead, per)
		}
	}
	wg.Wait()
	if st := store.Stats(); st.Reads != 400 || st.BytesRead != 400*per {
		t.Fatalf("final stats %+v, want 400 reads of %d bytes", st, per)
	}
}
