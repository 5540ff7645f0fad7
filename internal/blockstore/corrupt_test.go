package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
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

// Regions of corruptTestUnit's file: header | A | slab.
const (
	corruptABytes = 6 * 3 * 8
	corruptAEnd   = unitHeaderBytes + corruptABytes
	corruptLen    = corruptAEnd + 2*corruptABytes
)

// unitHeader builds a file header by hand.
func unitHeader(mode, part, rows, f, l int32) []byte {
	var buf bytes.Buffer
	buf.WriteString(unitMagic)
	binary.Write(&buf, binary.LittleEndian, [5]int32{mode, part, rows, f, l})
	return buf.Bytes()
}

// TestFileStoreGetCorruptUnit pins the typed-error contract: every way a
// unit's file can be damaged on disk — zero-length, cut inside the header,
// A or the slab, wrong magic, a header that declares more or less than the
// file holds, another unit's file — surfaces as ErrCorrupt from Get, never
// as a panic, an allocation sized by the header, an untyped decode error or
// a unit with half its payload. ErrNotFound stays reserved for units never
// written.
func TestFileStoreGetCorruptUnit(t *testing.T) {
	// damaged runs the case on the two files a store can hold for a unit:
	// as the whole Put that lays U down left it (u-part), and as a later
	// A-part Put into it left it (a-part). damage gets the file's bytes
	// and a write that replaces them and checks that Get now fails with
	// ErrCorrupt, having allocated nothing near what a header may declare.
	damaged := func(t *testing.T, damage func(write func(data []byte, what string), good []byte)) {
		for _, last := range []string{"a", "u"} {
			t.Run(last+"-part", func(t *testing.T) {
				dir := t.TempDir()
				s, err := NewFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				u := corruptTestUnit()
				if err := s.Put(u); err != nil {
					t.Fatal(err)
				}
				if last == "a" {
					u.A.Data[0]++
					if err := s.Put(aPart(u)); err != nil {
						t.Fatal(err)
					}
				}
				path := filepath.Join(dir, "unit-1-2.tpun")
				good, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(good) != corruptLen {
					t.Fatalf("unit file is %d bytes, layout says %d", len(good), corruptLen)
				}
				damage(func(data []byte, what string) {
					t.Helper()
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					u, err := s.Get(1, 2)
					runtime.ReadMemStats(&after)
					if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound) || IsTransient(err) {
						t.Fatalf("%s: unit %v, err %v, want ErrCorrupt only", what, u, err)
					}
					if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
						t.Fatalf("%s: Get allocated %d bytes before giving up", what, got)
					}
				}, good)
			})
		}
	}
	cuts := func(keeps ...int) func(t *testing.T) {
		return func(t *testing.T) {
			damaged(t, func(write func([]byte, string), good []byte) {
				for _, keep := range keeps {
					write(good[:keep], fmt.Sprintf("cut to %d of %d bytes", keep, len(good)))
				}
			})
		}
	}

	t.Run("zero-length", cuts(0))

	t.Run("truncated", cuts(
		1, 3, 4, 9, 12, unitHeaderBytes-1, // inside the header
		unitHeaderBytes, unitHeaderBytes+1, unitHeaderBytes+8, unitHeaderBytes+corruptABytes/2, corruptAEnd-1, // inside A
		corruptAEnd+1, corruptAEnd+8, corruptAEnd+corruptABytes, corruptLen-8, corruptLen-1, // inside the slab
	))

	// Header and A whole, the slab gone: the unit is damaged, not absent and
	// not half a unit.
	t.Run("missing-u-part", func(t *testing.T) {
		dir := t.TempDir()
		s, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(corruptTestUnit()); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(filepath.Join(dir, "unit-1-2.tpun"), int64(corruptAEnd)); err != nil {
			t.Fatal(err)
		}
		if u, err := s.Get(1, 2); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound) {
			t.Fatalf("A without its slab: unit %v, err %v, want ErrCorrupt only", u, err)
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		damaged(t, func(write func([]byte, string), good []byte) {
			copy(good, "XXXX")
			write(good, "bad magic")
			copy(good, "TPUN")
			write(good, "the magic of the format before this one")
		})
	})

	t.Run("absurd-shape", func(t *testing.T) {
		// Headers declaring more than the file could possibly back must
		// fail before anything is sized by them — the astronomically large
		// and the "plausible" kind (40000×50000 ≈ 16 GB) alike — with the
		// good payload behind them or none.
		damaged(t, func(write func([]byte, string), good []byte) {
			for _, hdr := range [][]byte{
				unitHeader(1, 2, 1<<30, 1<<30, 2),
				unitHeader(1, 2, 40000, 50000, 2),
				unitHeader(1, 2, math.MaxInt32, math.MaxInt32, math.MaxInt32),
				unitHeader(1, 2, 7, 3, 2), // one row more than the file holds
				unitHeader(1, 2, -6, 3, 2),
				unitHeader(1, 2, 6, -3, 2),
				unitHeader(1, 2, 6, 3, 1<<30),
				unitHeader(1, 2, 6, 3, math.MaxInt32),
				unitHeader(1, 2, 6, 3, 3), // one block more than the file holds
				unitHeader(1, 2, 6, 3, -2),
				unitHeader(1, 2, 54, 0, 2), // no columns, whatever else adds up
			} {
				write(hdr, fmt.Sprintf("bare header % x", hdr[4:]))
				write(append(hdr, good[unitHeaderBytes:]...), fmt.Sprintf("header % x over the good payload", hdr[4:]))
			}
		})
	})

	t.Run("trailing-bytes", func(t *testing.T) {
		damaged(t, func(write func([]byte, string), good []byte) {
			write(append(good, 0), "one byte past the slab")
			write(append(good, make([]byte, 8)...), "one value past the slab")
			write(append(good, good[corruptAEnd:corruptAEnd+corruptABytes]...), "a whole block past the slab")
			write(append(unitHeader(1, 2, 0, 3, 2), good[unitHeaderBytes:]...), "a unit of no rows and a payload")
		})
	})

	t.Run("wrong-unit", func(t *testing.T) {
		damaged(t, func(write func([]byte, string), good []byte) {
			for _, id := range [][2]int32{{1, 3}, {0, 2}, {2, 1}, {-1, 2}} {
				copy(good, unitHeader(id[0], id[1], 6, 3, 2))
				write(good, fmt.Sprintf("the file of unit %v", id))
			}
		})
	})

	t.Run("missing-stays-not-found", func(t *testing.T) {
		s, err := NewFileStore(t.TempDir())
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
	})
}

// TestFileStoreWriteBackOntoDamage: an A-part Put reads the header it
// writes behind. One it cannot make sense of is ErrCorrupt, permanent, and
// nothing is written; damage further in is not its business — the file
// stays as corrupt for Get as it was.
func TestFileStoreWriteBackOntoDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	u := corruptTestUnit()
	if err := s.Put(u); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "unit-1-2.tpun")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for what, data := range map[string][]byte{
		"zero-length":      nil,
		"cut in header":    good[:unitHeaderBytes-1],
		"bad magic":        append([]byte("XXXX"), good[4:]...),
		"another's header": append(unitHeader(1, 3, 6, 3, 2), good[unitHeaderBytes:]...),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(aPart(u)); !errors.Is(err, ErrCorrupt) || IsTransient(err) {
			t.Fatalf("%s: A-part Put: %v, want ErrCorrupt", what, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("%s: a refused A-part Put changed the file (%v)", what, err)
		}
	}
	if err := os.WriteFile(path, good[:corruptAEnd+5], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(aPart(u)); err != nil {
		t.Fatalf("A-part Put behind a whole header: %v", err)
	}
	if _, err := s.Get(1, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of a file cut in its slab: %v, want ErrCorrupt", err)
	}
}
