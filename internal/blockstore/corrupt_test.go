package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twopcp/internal/mat"
)

func corruptTestUnit() *Unit {
	rng := rand.New(rand.NewSource(1))
	return &Unit{
		Mode: 1, Part: 2,
		A: mat.Random(6, 3, rng),
		U: map[int]*mat.Matrix{0: mat.Random(6, 3, rng), 4: mat.Random(6, 3, rng)},
	}
}

// TestFileStoreGetCorruptUnit pins the typed-error contract: every way
// either of a unit's two part files can be damaged on disk — zero-length,
// truncated at several depths, wrong magic, garbage header sizes, a U part
// that is gone — surfaces as ErrCorrupt from Get, never as a panic, an
// allocation blowup, an untyped decode error or a unit with half its
// payload. ErrNotFound stays reserved for units that were never written.
func TestFileStoreGetCorruptUnit(t *testing.T) {
	// damaged runs the case once per part file, each time on a fresh store
	// holding one good unit: damage receives the part's path and good
	// bytes, and after every write it makes the caller's Get must fail
	// with ErrCorrupt.
	damaged := func(t *testing.T, damage func(t *testing.T, path string, good []byte, get func(what string))) {
		for _, half := range []string{"a", "u"} {
			t.Run(half+"-part", func(t *testing.T) {
				dir := t.TempDir()
				s, err := NewFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Put(corruptTestUnit()); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, "unit-1-2."+half+".tpun")
				good, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				damage(t, path, good, func(what string) {
					t.Helper()
					if u, err := s.Get(1, 2); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: unit %v, err %v, want ErrCorrupt", what, u, err)
					}
				})
			})
		}
	}
	write := func(t *testing.T, path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("zero-length", func(t *testing.T) {
		damaged(t, func(t *testing.T, path string, _ []byte, get func(string)) {
			write(t, path, nil)
			get("zero-length part")
		})
	})

	t.Run("truncated", func(t *testing.T) {
		damaged(t, func(t *testing.T, path string, good []byte, get func(string)) {
			for _, keep := range []int{1, 3, 4, 9, 12, len(good) / 2, len(good) - 1} {
				write(t, path, good[:keep])
				get(fmt.Sprintf("truncated to %d bytes", keep))
			}
		})
	})

	t.Run("bad-magic", func(t *testing.T) {
		damaged(t, func(t *testing.T, path string, good []byte, get func(string)) {
			copy(good, "XXXX")
			write(t, path, good)
			get("bad magic")
		})
	})

	t.Run("absurd-shape", func(t *testing.T) {
		// Headers declaring matrices the file could not possibly back must
		// fail cleanly instead of attempting the allocation — both the
		// astronomically large (~2^60 elements) and the "plausible" kind
		// (40000×50000 ≈ 16 GB) that a loose element cap would wave through
		// — and so must a U count no file of that size could hold.
		damaged(t, func(t *testing.T, path string, _ []byte, get func(string)) {
			for _, shape := range [][2]int32{{1 << 30, 1 << 30}, {40000, 50000}} {
				var buf bytes.Buffer
				buf.WriteString("TPUN")
				binary.Write(&buf, binary.LittleEndian, [2]int32{1, 2}) // mode, part
				binary.Write(&buf, binary.LittleEndian, shape)
				write(t, path, buf.Bytes())
				get(fmt.Sprintf("absurd shape %v", shape))
			}
			var buf bytes.Buffer
			buf.WriteString("TPUN")
			binary.Write(&buf, binary.LittleEndian, [5]int32{1, 2, 0, 0, 1 << 20}) // mode, part, 0×0 A, U count
			write(t, path, buf.Bytes())
			get("absurd U count")
		})
	})

	t.Run("missing-u-part", func(t *testing.T) {
		// The A part is what makes a unit exist; without the U part it was
		// seeded with, the unit is damaged, not absent and not half a unit.
		dir := t.TempDir()
		s, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(corruptTestUnit()); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, "unit-1-2.u.tpun")); err != nil {
			t.Fatal(err)
		}
		if u, err := s.Get(1, 2); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound) {
			t.Fatalf("A part without its U part: unit %v, err %v, want ErrCorrupt only", u, err)
		}
	})

	t.Run("missing-stays-not-found", func(t *testing.T) {
		dir := t.TempDir()
		s, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(corruptTestUnit()); err != nil {
			t.Fatal(err)
		}
		_, err = s.Get(0, 0)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing unit: %v", err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("missing unit misreported as corrupt: %v", err)
		}
		// A U part on its own is a whole Put that never finished: the
		// unit does not exist yet.
		if err := os.Remove(filepath.Join(dir, "unit-1-2.a.tpun")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(1, 2); !errors.Is(err, ErrNotFound) {
			t.Fatalf("U part without an A part: %v", err)
		}
	})
}
