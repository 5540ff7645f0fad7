package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"twopcp/internal/mat"
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

// unitsEqual compares A and the packed slab, whichever form of U each
// unit carries: block ids do not survive a store, their order does.
func unitsEqual(a, b *Unit) bool {
	sa, erra := PackSlab(a)
	sb, errb := PackSlab(b)
	return erra == nil && errb == nil && a.Mode == b.Mode && a.Part == b.Part && a.A.Equal(b.A) && sa.Equal(sb)
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
	// An A part shaped unlike the seeded A would leave a unit whose A no
	// longer fits its U: refused for good, and nothing changes.
	for _, shape := range [][2]int{{5, 3}, {4, 2}, {3, 4}, {0, 0}} {
		bad := &Unit{Mode: 1, Part: 2, A: mat.New(shape[0], shape[1])}
		if err := s.Put(bad); !errors.Is(err, ErrShape) || IsTransient(err) {
			t.Fatalf("%d×%d A-part Put onto a 4×3 unit: err = %v, want ErrShape", shape[0], shape[1], err)
		}
	}
	if err := s.Put(&Unit{Mode: 1, Part: 2, A: u3.A, U: map[int]*mat.Matrix{0: mat.New(5, 3)}}); !errors.Is(err, ErrShape) {
		t.Fatalf("whole Put with a U block unlike its A: err = %v, want ErrShape", err)
	}
	if got, err = s.Get(1, 2); err != nil || !unitsEqual(got, &Unit{Mode: 1, Part: 2, A: u3.A, U: u2.U}) {
		t.Fatalf("refused Puts changed the unit (err %v)", err)
	}
	if got.U != nil || got.Slab.Rows != 4 || got.Slab.Cols != 3*3 {
		t.Fatalf("Get returned U %v and a %d×%d slab, want the packed 4×9 form alone", got.U, got.Slab.Rows, got.Slab.Cols)
	}
	// A packed whole Put is the per-block one, block for block.
	packed, err := PackSlab(u2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Unit{Mode: 1, Part: 2, A: u2.A, Slab: packed}); err != nil {
		t.Fatal(err)
	}
	packed.Data[0] = 12345 // the store took a copy
	if got, err = s.Get(1, 2); err != nil || !unitsEqual(got, u2) {
		t.Fatalf("packed whole Put: Get differs from the per-block unit (err %v)", err)
	}
	// A recycled unit's storage may back the next Get, which must not show
	// what the last owner left in it; a unit no Get returned is left alone.
	for i := range got.Slab.Data {
		got.Slab.Data[i] = -1
	}
	got.Recycle()
	if got.A != nil || got.Slab != nil {
		t.Fatal("a recycled unit still refers to its storage")
	}
	u2.Recycle()
	if got, err = s.Get(1, 2); err != nil || !unitsEqual(got, u2) {
		t.Fatalf("Get after a Recycle differs from the stored unit (err %v)", err)
	}
	// Stats: 7 gets (the two failed ones not counted), 4 puts (the refused
	// ones not counted), bytes as passed: three whole units and one A.
	st := s.Stats()
	if st.Reads != 7 || st.Writes != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesRead != 7*u.Bytes() || st.BytesWritten != 3*u.Bytes()+aPart(u).Bytes() {
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
	// The second unit takes several trips through the codec's buffer, and
	// its size is no multiple of the buffer's.
	big := &Unit{Mode: 2, Part: 0, A: mat.Random(301, 16, rng), U: map[int]*mat.Matrix{}}
	for b := 0; b < 8; b++ {
		big.U[3*b] = mat.Random(301, 16, rng)
	}
	for _, u := range []*Unit{testUnit(rng), big} {
		var buf bytes.Buffer
		if err := EncodeUnit(&buf, u); err != nil {
			t.Fatal(err)
		}
		if want := int64(unitHeaderBytes) + u.Bytes(); int64(buf.Len()) != want {
			t.Fatalf("encoding is %d bytes, want header + payload = %d", buf.Len(), want)
		}
		got, err := DecodeUnitWithin(&buf, int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if !unitsEqual(got, u) {
			t.Fatal("codec round trip failed")
		}
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
	bad := "NOPE" + strings.Repeat("\x00", unitHeaderBytes-4)
	if _, err := DecodeUnitWithin(strings.NewReader(bad), int64(len(bad))); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v, want a bad-magic error", err)
	}
}

func TestDecodeUnitTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	if err := EncodeUnit(&buf, testUnit(rng)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := DecodeUnitWithin(bytes.NewReader(data[:len(data)-4]), int64(len(data)-4)); err == nil {
		t.Fatal("expected error for truncated unit")
	}
	// A size the reader cannot deliver is an error too, not a short unit.
	if _, err := DecodeUnitWithin(bytes.NewReader(data[:len(data)-8]), int64(len(data))); err == nil {
		t.Fatal("expected error for a reader shorter than its declared size")
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
	// Puts must land exactly the unit's one file: whole Puts and
	// write-backs alike go to it, not through anything beside it.
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
	if want := []string{"unit-1-2.tpun"}; !slices.Equal(names, want) {
		t.Fatalf("store dir has %v, want %v", names, want)
	}
}

// TestFileStoreWriteBackLeavesUPartAlone pins the write-once half of the
// layout: an A-part Put writes into the file the whole Put made — the same
// inode, the same size — and changes the bytes of the A region and no
// others.
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
	path := filepath.Join(dir, "unit-1-2.tpun")
	read := func() (os.FileInfo, []byte) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi, data
	}
	wasInfo, was := read()
	part := aPart(testUnit(rng))
	if err := s.Put(part); err != nil {
		t.Fatal(err)
	}
	isInfo, is := read()
	if !os.SameFile(wasInfo, isInfo) || len(is) != len(was) {
		t.Fatalf("A-part Put replaced or resized the file: %d bytes, was %d", len(is), len(was))
	}
	aEnd := unitHeaderBytes + int(part.Bytes())
	if !bytes.Equal(is[:unitHeaderBytes], was[:unitHeaderBytes]) || !bytes.Equal(is[aEnd:], was[aEnd:]) {
		t.Fatal("A-part Put changed bytes outside the A region")
	}
	var want bytes.Buffer
	binary.Write(&want, binary.LittleEndian, part.A.Data)
	if !bytes.Equal(is[unitHeaderBytes:aEnd], want.Bytes()) {
		t.Fatal("the A region is not the A that was Put")
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

// TestFileStoreHoldsOneDescriptorPerUnit: each unit's file is opened once,
// however often the unit is read and written back, and Close gives every
// descriptor back; a second Close has nothing left to close. Only
// descriptors on the store's directory count: other tests' stores are
// closed by finalizers at whatever moment the GC picks.
func TestFileStoreHoldsOneDescriptorPerUnit(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, fd := range fds {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && filepath.Dir(target) == dir {
				n++
			}
		}
		return n
	}
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const units = 12
	for part := 0; part < units; part++ {
		u := testUnit(rng)
		u.Part = part
		if err := s.Put(u); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got, err := s.Get(u.Mode, part)
			if err != nil {
				t.Fatal(err)
			}
			got.A.Data[0]++
			if err := s.Put(aPart(got)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := openFDs(); got != units {
		t.Fatalf("%d units read and written back hold %d descriptors, want %d", units, got, units)
	}
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
		if got := openFDs(); got != 0 {
			t.Fatalf("after Close #%d: %d descriptors still open", i+1, got)
		}
	}
}
