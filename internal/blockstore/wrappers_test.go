package blockstore

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestFaultyStorePassthrough(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	u := testUnit(rng)
	s := NewFaultyStore(NewMemStore())
	if err := s.Put(u); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(u.Mode, u.Part)
	if err != nil {
		t.Fatal(err)
	}
	if !unitsEqual(got, u) {
		t.Fatal("passthrough altered the unit")
	}
	if st := s.Stats(); st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.ResetStats()
	if st := s.Stats(); st.Reads != 0 {
		t.Fatal("ResetStats did not pass through")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultyStoreInjectsAtIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	u := testUnit(rng)
	s := NewFaultyStore(NewMemStore())
	s.SetPlan(FaultPlan{
		WriteOutageFrom: 2, WriteOutageLen: 1,
		ReadOutageFrom: 3, ReadOutageLen: 1,
		Permanent: true,
	})
	if err := s.Put(u); err != nil {
		t.Fatal(err) // write 1 passes
	}
	if err := s.Put(u); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: err = %v", err) // write 2 fails
	}
	if err := s.Put(u); err != nil {
		t.Fatal(err) // write 3 passes again
	}
	for i := 1; i <= 4; i++ {
		_, err := s.Get(u.Mode, u.Part)
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("read %d: err = %v, want injected", i, err)
			}
		} else if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if reads, writes := s.Fails(); reads != 1 || writes != 1 {
		t.Fatalf("fail counters = %d/%d", reads, writes)
	}
}

func TestLatencyStoreDelaysAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	u := testUnit(rng)
	s := WithLatency(NewMemStore(), 3*time.Millisecond, 2*time.Millisecond)
	start := time.Now()
	if err := s.Put(u); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(u.Mode, u.Part); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 5*time.Millisecond {
		t.Fatalf("latency not injected: %v", elapsed)
	}
	if st := s.Stats(); st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats passthrough = %+v", st)
	}
	s.ResetStats()
	if st := s.Stats(); st.Writes != 0 {
		t.Fatal("ResetStats did not pass through")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyStoreZeroLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	u := testUnit(rng)
	s := WithLatency(NewMemStore(), 0, 0)
	if err := s.Put(u); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(u.Mode, u.Part); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats passthrough = %+v", st)
	}
}

// TestWrapperContract runs every wrapper over a MemStore through the one
// contract they share: operations reach the wrapped store and come back
// unchanged, Stats/ResetStats/Close are the wrapped store's own, and a
// wrapped store's error stays errors.Is-intact.
func TestWrapperContract(t *testing.T) {
	for name, wrap := range map[string]func(Store) Store{
		"faulty":       func(s Store) Store { return NewFaultyStore(s) },
		"latency":      func(s Store) Store { return WithLatency(s, 0, 0) },
		"resilient":    func(s Store) Store { return Resilient(s, 2, 0, nil) },
		"instrumented": func(s Store) Store { return Instrument(s, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			base := NewMemStore()
			s := wrap(base)
			u := testUnit(rand.New(rand.NewSource(31)))
			if err := s.Put(u); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(u.Mode, u.Part)
			if err != nil || !unitsEqual(got, u) {
				t.Fatalf("round trip: %v", err)
			}
			if _, err := s.Get(u.Mode, u.Part+1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing unit: err = %v, want ErrNotFound", err)
			}
			if st := s.Stats(); st != base.Stats() || st.Reads != 1 || st.Writes != 1 {
				t.Fatalf("Stats = %+v, wrapped store's = %+v", st, base.Stats())
			}
			s.ResetStats()
			if st := base.Stats(); st != (Stats{}) {
				t.Fatalf("ResetStats did not reach the wrapped store: %+v", st)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := base.Get(u.Mode, u.Part); !errors.Is(err, ErrNotFound) {
				t.Fatal("Close did not reach the wrapped store")
			}
		})
	}
}
