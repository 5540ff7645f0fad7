package blockstore

import (
	"errors"
	"math/rand"
	"testing"

	"twopcp/internal/mat"
)

// TestFileStoreMatchesMemStore drives one seeded random sequence of
// whole-unit Puts, A-part Puts and Gets — over units of unequal partition
// sizes and slab widths, some of them never seeded — against a MemStore
// and a FileStore. After every step the two must agree on the outcome (the
// same unit, or the same typed error) and on Stats: the counted simulation
// and the real files are one store, byte for byte. The one subtest keeps
// the name recorded test lists know the check by.
func TestFileStoreMatchesMemStore(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		mem := NewMemStore()
		file, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		const rank = 3
		// Unit ⟨mode,part⟩ has 2+part+mode rows and mode+1 slab blocks.
		randomUnit := func(mode, part int, whole bool) *Unit {
			rows := 2 + part + mode
			u := &Unit{Mode: mode, Part: part, A: mat.Random(rows, rank, rng)}
			if whole {
				u.U = map[int]*mat.Matrix{}
				for b := 0; b <= mode; b++ {
					u.U[10*part+b] = mat.Random(rows, rank, rng)
				}
			}
			return u
		}
		sameErr := func(a, b error) bool {
			for _, class := range []error{ErrNotFound, ErrCorrupt, ErrTransient} {
				if errors.Is(a, class) != errors.Is(b, class) {
					return false
				}
			}
			return (a == nil) == (b == nil)
		}
		for step := 0; step < 400; step++ {
			mode, part := rng.Intn(3), rng.Intn(4)
			var what string
			switch op := rng.Intn(10); {
			case op < 2:
				what = "whole Put"
				u := randomUnit(mode, part, true)
				if me, fe := mem.Put(u), file.Put(u); me != nil || fe != nil {
					t.Fatalf("step %d: whole Put ⟨%d,%d⟩: mem %v, file %v", step, mode, part, me, fe)
				}
			case op < 6:
				what = "A-part Put"
				u := randomUnit(mode, part, false)
				if me, fe := mem.Put(u), file.Put(u); !sameErr(me, fe) {
					t.Fatalf("step %d: A-part Put ⟨%d,%d⟩: mem %v, file %v", step, mode, part, me, fe)
				}
			default:
				what = "Get"
				mu, me := mem.Get(mode, part)
				fu, fe := file.Get(mode, part)
				if !sameErr(me, fe) {
					t.Fatalf("step %d: Get ⟨%d,%d⟩: mem %v, file %v", step, mode, part, me, fe)
				}
				if me == nil && !unitsEqual(mu, fu) {
					t.Fatalf("step %d: Get ⟨%d,%d⟩ differs between stores", step, mode, part)
				}
			}
			if ms, fs := mem.Stats(), file.Stats(); ms != fs {
				t.Fatalf("step %d (%s ⟨%d,%d⟩): stats diverge: mem %+v, file %+v", step, what, mode, part, ms, fs)
			}
		}
		if st := mem.Stats(); st.Reads == 0 || st.Writes == 0 {
			t.Fatalf("sequence exercised nothing: %+v", st)
		}
	})
}
