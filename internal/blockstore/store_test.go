package blockstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

func testUnit(rng *rand.Rand) *Unit {
	return &Unit{
		Mode: 1,
		Part: 2,
		A:    mat.Random(4, 3, rng),
		U: map[int]*mat.Matrix{
			0: mat.Random(4, 3, rng),
			5: mat.Random(4, 3, rng),
			9: mat.Random(4, 3, rng),
		},
	}
}

func unitsEqual(a, b *Unit) bool {
	if a.Mode != b.Mode || a.Part != b.Part || !a.A.Equal(b.A) || len(a.U) != len(b.U) {
		return false
	}
	for id, m := range a.U {
		if bm, ok := b.U[id]; !ok || !m.Equal(bm) {
			return false
		}
	}
	return true
}

func TestUnitBytes(t *testing.T) {
	u := testUnit(rand.New(rand.NewSource(1)))
	want := int64(4*3*4) * 8 // A plus three U matrices, 12 floats each
	if got := u.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Writes: 2, BytesRead: 3, BytesWritten: 4}
	a.Add(Stats{Reads: 10, Writes: 20, BytesRead: 30, BytesWritten: 40})
	if a.Reads != 11 || a.Writes != 22 || a.BytesRead != 33 || a.BytesWritten != 44 {
		t.Fatalf("Add = %+v", a)
	}
}

// aPart is the write-back payload for u: its A, no U.
func aPart(u *Unit) *Unit { return &Unit{Mode: u.Mode, Part: u.Part, A: u.A} }

// storeContract exercises the Store interface invariants on any backend.
func storeContract(t *testing.T, s Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	u := testUnit(rng)

	if _, err := s.Get(1, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get before Put: err = %v, want ErrNotFound", err)
	}
	// An A part has no U to stand on until the unit was Put whole.
	if err := s.Put(aPart(u)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("A-part Put before the whole unit: err = %v, want ErrNotFound", err)
	}
	if _, err := s.Get(1, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after a refused A-part Put: err = %v, want ErrNotFound", err)
	}
	if err := s.Put(u); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !unitsEqual(got, u) {
		t.Fatal("Get returned different unit")
	}
	// Mutating the fetched unit must not write through.
	got.A.Set(0, 0, 12345)
	again, err := s.Get(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again.A.At(0, 0) == 12345 {
		t.Fatal("store aliases fetched unit")
	}
	// Overwrite.
	u2 := testUnit(rng)
	u2.A.Set(0, 0, -7)
	if err := s.Put(u2); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.A.At(0, 0) != -7 {
		t.Fatal("Put did not overwrite")
	}
	// An A-part Put replaces A and leaves the stored U where it is.
	u3 := testUnit(rng)
	if err := s.Put(aPart(u3)); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := (&Unit{Mode: 1, Part: 2, A: u3.A, U: u2.U}); !unitsEqual(got, want) {
		t.Fatal("A-part Put: Get is not the new A with the seeded U")
	}
	// Stats: 4 gets (the two failed ones not counted), 3 puts (the refused
	// one not counted), bytes as passed: two whole units and one A.
	st := s.Stats()
	if st.Reads != 4 || st.Writes != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesRead != 4*u.Bytes() || st.BytesWritten != 2*u.Bytes()+aPart(u).Bytes() {
		t.Fatalf("byte stats = %+v", st)
	}
	s.ResetStats()
	if st := s.Stats(); st.Reads != 0 || st.BytesWritten != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreContract(t *testing.T) {
	storeContract(t, NewMemStore())
}

func TestFileStoreContract(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, s)
}

func TestEncodeDecodeUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := testUnit(rng)
	var buf bytes.Buffer
	if err := EncodeUnit(&buf, u); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUnit(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !unitsEqual(got, u) {
		t.Fatal("codec round trip failed")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := testUnit(rng)
	var b1, b2 bytes.Buffer
	if err := EncodeUnit(&b1, u); err != nil {
		t.Fatal(err)
	}
	if err := EncodeUnit(&b2, u); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDecodeUnitBadMagic(t *testing.T) {
	if _, err := DecodeUnit(strings.NewReader("NOPE")); err == nil {
		t.Fatal("expected error")
	}
}

func TestDecodeUnitTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	if err := EncodeUnit(&buf, testUnit(rng)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := DecodeUnit(bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Fatal("expected error for truncated unit")
	}
}

func TestFileStorePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	u := testUnit(rng)
	s1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(u); err != nil {
		t.Fatal(err)
	}
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !unitsEqual(got, u) {
		t.Fatal("unit not persisted")
	}
}

func TestFileStorePutLeavesNoTempFiles(t *testing.T) {
	// Puts must land exactly the unit's two part files, fully written: no
	// temp-file debris (a crash between create and rename is the only
	// state that may leave one, and a fresh Put replaces it atomically).
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	u := testUnit(rng)
	for i := 0; i < 3; i++ {
		if err := s.Put(u); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(aPart(u)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"unit-1-2.a.tpun", "unit-1-2.u.tpun"}; !slices.Equal(names, want) {
		t.Fatalf("store dir has %v, want %v", names, want)
	}
}

// TestFileStoreWriteBackLeavesUPartAlone pins the write-once half of the
// layout: an A-part Put touches no byte of the U part, and puts on disk
// what it counts — the A part's file, nothing else.
func TestFileStoreWriteBackLeavesUPartAlone(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testUnit(rng)); err != nil {
		t.Fatal(err)
	}
	list := func() map[string]os.FileInfo {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		infos := make(map[string]os.FileInfo)
		for _, e := range entries {
			if infos[e.Name()], err = e.Info(); err != nil {
				t.Fatal(err)
			}
		}
		return infos
	}
	before := list()
	part := aPart(testUnit(rng))
	if err := s.Put(part); err != nil {
		t.Fatal(err)
	}
	after := list()
	if len(after) != len(before) {
		t.Fatalf("A-part Put changed the file set: %d files, was %d", len(after), len(before))
	}
	for name, was := range before {
		is, ok := after[name]
		if !ok {
			t.Fatalf("A-part Put removed %s", name)
		}
		same := os.SameFile(was, is) && is.ModTime().Equal(was.ModTime())
		if replaced := name == "unit-1-2.a.tpun"; same == replaced {
			t.Fatalf("%s: unchanged = %v, want the A part and only the A part replaced", name, same)
		}
	}
	var enc bytes.Buffer
	if err := EncodeUnit(&enc, part); err != nil {
		t.Fatal(err)
	}
	if got := after["unit-1-2.a.tpun"].Size(); got != int64(enc.Len()) {
		t.Fatalf("A part is %d bytes on disk, its encoding is %d", got, enc.Len())
	}
}

func TestChunkStore(t *testing.T) {
	s, err := NewChunkStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	blk := tensor.RandomDense(rng, 3, 4, 2)
	if err := s.PutChunk([]int{0, 1, 1}, blk); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetChunk([]int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(blk, 0) {
		t.Fatal("chunk round trip failed")
	}
	if _, err := s.GetChunk([]int{9, 9, 9}); err == nil {
		t.Fatal("missing chunk should error")
	}
	st := s.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("chunk stats = %+v", st)
	}
	if st.BytesWritten != 24*8 || st.BytesRead != 24*8 {
		t.Fatalf("chunk byte stats = %+v", st)
	}
}

func TestMemStoreConcurrentAccess(t *testing.T) {
	s := NewMemStore()
	rng := rand.New(rand.NewSource(8))
	u := testUnit(rng)
	if err := s.Put(u); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := s.Get(1, 2); err != nil {
					done <- err
					return
				}
				if err := s.Put(u); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Reads != 400 || st.Writes != 401 {
		t.Fatalf("concurrent stats = %+v", st)
	}
}
