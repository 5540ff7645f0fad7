package buffer

import (
	"math/rand"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/schedule"
)

// snapshotStore seeds a store with one unit per ⟨mode, part⟩ of p.
func snapshotStore(t *testing.T, p *grid.Pattern, rank int) blockstore.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	store := blockstore.NewMemStore()
	for mode := 0; mode < p.NModes(); mode++ {
		for part := 0; part < p.K[mode]; part++ {
			_, rows := p.ModeRange(mode, part)
			u := &blockstore.Unit{Mode: mode, Part: part, A: mat.Random(rows, rank, rng), U: map[int]*mat.Matrix{}}
			for _, id := range p.Slab(mode, part) {
				u.U[id] = mat.Random(rows, rank, rng)
			}
			if err := store.Put(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

// TestSnapshotRestoreReplaysDecisions drives two managers over the same
// store — one continuously, one rebuilt mid-sequence from a Snapshot — and
// checks that the rebuilt manager's residency and statistics track the
// original exactly through the rest of the access sequence.
func TestSnapshotRestoreReplaysDecisions(t *testing.T) {
	for _, pol := range Policies {
		t.Run(pol.String(), func(t *testing.T) {
			p := grid.UniformCube(3, 12, 3)
			sched := schedule.New(schedule.HilbertOrder, p)
			accesses := sched.AccessString()
			rank := 4
			capacity := schedule.TotalBytes(p, rank) / 2

			store := snapshotStore(t, p, rank)
			cfg := Config{Store: store, Pattern: p, CapacityBytes: capacity, Policy: pol, Schedule: sched}
			cont, err := NewManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cut := len(accesses) / 3
			touch := func(m *Manager, a schedule.Access) {
				t.Helper()
				if _, err := m.Acquire(a.Mode, a.Part); err != nil {
					t.Fatal(err)
				}
				m.Release(a.Mode, a.Part, true)
			}
			for _, a := range accesses[:cut] {
				touch(cont, a)
			}
			st, err := cont.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			rebuilt, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: capacity, Policy: pol, Schedule: sched})
			if err != nil {
				t.Fatal(err)
			}
			if err := rebuilt.Restore(st); err != nil {
				t.Fatal(err)
			}
			if got := rebuilt.Stats(); got != st.Stats {
				t.Fatalf("restored stats %+v, want %+v", got, st.Stats)
			}

			// Both managers now walk the remainder of the cycle (twice, to
			// wrap) and must agree on every counter after every access.
			rest := append(append([]schedule.Access{}, accesses[cut:]...), accesses...)
			for i, a := range rest {
				touch(cont, a)
				touch(rebuilt, a)
				cs, rs := cont.Stats(), rebuilt.Stats()
				if cs != rs {
					t.Fatalf("%s: stats diverge at access %d (%+v): continuous %+v, rebuilt %+v", pol, i, a, cs, rs)
				}
			}
			for mode := 0; mode < p.NModes(); mode++ {
				for part := 0; part < p.K[mode]; part++ {
					if cont.Contains(mode, part) != rebuilt.Contains(mode, part) {
						t.Fatalf("%s: residency of ⟨%d,%d⟩ diverges", pol, mode, part)
					}
				}
			}
		})
	}
}

func TestSnapshotRefusesPinned(t *testing.T) {
	p := grid.UniformCube(3, 6, 2)
	store := snapshotStore(t, p, 2)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 1 << 30, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot with a pinned unit succeeded")
	}
	m.Release(0, 0, false)
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRefusesUsedManager(t *testing.T) {
	p := grid.UniformCube(3, 6, 2)
	store := snapshotStore(t, p, 2)
	m, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 1 << 30, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	m.Release(0, 0, false)
	if err := m.Restore(State{}); err == nil {
		t.Fatal("Restore on a used manager succeeded")
	}

	fresh, err := NewManager(Config{Store: store, Pattern: p, CapacityBytes: 1 << 30, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(State{Resident: []SnapshotEntry{{ID: 999}}}); err == nil {
		t.Fatal("Restore with out-of-range unit id succeeded")
	}
}
