package tensor

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestDenseIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	d := RandomDense(rng, 3, 4, 5)
	var buf bytes.Buffer
	if err := WriteDense(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(d, 0) {
		t.Fatal("dense IO round trip failed")
	}
}

func TestCOOIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := RandomCOO(rng, 0.2, 5, 6, 7)
	var buf bytes.Buffer
	if err := WriteCOO(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCOO(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense().EqualApprox(c.Dense(), 0) {
		t.Fatal("COO IO round trip failed")
	}
	if got.NNZ() != c.NNZ() {
		t.Fatalf("nnz %d != %d", got.NNZ(), c.NNZ())
	}
}

func TestReadDenseBadMagic(t *testing.T) {
	if _, err := ReadDense(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadCOOBadMagic(t *testing.T) {
	if _, err := ReadCOO(strings.NewReader("XXXX")); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadDenseTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	d := RandomDense(rng, 4, 4)
	var buf bytes.Buffer
	if err := WriteDense(&buf, d); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-8]
	if _, err := ReadDense(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error for truncated input")
	}
}

// TestDenseIOHoldsTheTensorOnce: ReadDense allocates the tensor and a
// bounded amount besides, and WriteDense only the bounded amount — neither
// makes a byte copy of the payload.
func TestDenseIOHoldsTheTensorOnce(t *testing.T) {
	const cells = 1 << 20
	d := NewDense(1<<10, 1<<10)
	for i := range d.Data {
		d.Data[i] = float64(i) - 0.5
	}
	var buf bytes.Buffer
	buf.Grow(24 + 8*cells)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var err error
	if n := allocated(func() { err = WriteDense(&buf, d) }); err != nil || n > 1<<20 {
		t.Fatalf("WriteDense of %d cells: err %v, %d bytes allocated", cells, err, n)
	}
	var got *Dense
	if n := allocated(func() { got, err = ReadDense(bytes.NewReader(buf.Bytes())) }); err != nil || n > 8*cells+1<<20 {
		t.Fatalf("ReadDense of %d cells: err %v, %d bytes allocated, want at most %d", cells, err, n, 8*cells+1<<20)
	}
	if !got.EqualApprox(d, 0) {
		t.Fatal("dense IO round trip failed")
	}
}

func TestSaveLoadDenseFile(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := RandomDense(rng, 2, 3, 2)
	path := filepath.Join(t.TempDir(), "t.tpdn")
	if err := SaveDense(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDense(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(d, 0) {
		t.Fatal("file round trip failed")
	}
}

func TestSaveLoadCOOFile(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	c := RandomCOO(rng, 0.3, 4, 4)
	path := filepath.Join(t.TempDir(), "t.tpsp")
	if err := SaveCOO(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCOO(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense().EqualApprox(c.Dense(), 0) {
		t.Fatal("file round trip failed")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadDense(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := LoadCOO(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error")
	}
}

// corruptHeader builds a dense header (magic + nmodes + dims) with
// arbitrary dim values and no payload.
func corruptHeader(magic string, dims ...uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	binary.Write(&buf, binary.LittleEndian, uint32(len(dims)))
	binary.Write(&buf, binary.LittleEndian, dims)
	return buf.Bytes()
}

func TestReadDenseRejectsImplausibleHeaders(t *testing.T) {
	// Overflowing product: three modes of 2^21 = 2^63 cells. Must be
	// rejected before any allocation is attempted.
	b := corruptHeader("TPDN", 1<<21, 1<<21, 1<<21)
	if _, err := ReadDense(bytes.NewReader(b)); err == nil {
		t.Fatal("overflowing dims accepted")
	}
	// A single absurd mode.
	b = corruptHeader("TPDN", 1<<50)
	if _, err := ReadDense(bytes.NewReader(b)); err == nil {
		t.Fatal("2^50-cell mode accepted")
	}
}

func TestReadDenseRejectsHeaderLargerThanFile(t *testing.T) {
	// A small file whose header claims a 64M-cell tensor: the file-size
	// check must fire before the 512 MB allocation.
	path := filepath.Join(t.TempDir(), "lie.tpdn")
	if err := os.WriteFile(path, corruptHeader("TPDN", 400, 400, 400), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDense(path); err == nil {
		t.Fatal("header larger than file accepted")
	}
	if !strings.Contains(func() string {
		_, err := LoadDense(path)
		return err.Error()
	}(), "file has only") {
		t.Fatal("expected a file-size mismatch error")
	}
}

func TestReadCOORejectsImplausibleHeaders(t *testing.T) {
	// nnz beyond any sane bound.
	var buf bytes.Buffer
	buf.Write(corruptHeader("TPSP", 100, 100))
	binary.Write(&buf, binary.LittleEndian, uint64(1)<<50)
	if _, err := ReadCOO(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("2^50 nnz accepted")
	}
	// Overflowing dims product.
	b := corruptHeader("TPSP", 1<<21, 1<<21, 1<<21)
	if _, err := ReadCOO(bytes.NewReader(b)); err == nil {
		t.Fatal("overflowing dims accepted")
	}
}

func TestReadCOORejectsNNZLargerThanFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lie.tpsp")
	var buf bytes.Buffer
	buf.Write(corruptHeader("TPSP", 50, 50))
	binary.Write(&buf, binary.LittleEndian, uint64(1_000_000)) // ~24 MB of records
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCOO(path); err == nil {
		t.Fatal("nnz larger than file accepted")
	}
}

func TestEmptyDenseIO(t *testing.T) {
	d := NewDense(0, 5)
	var buf bytes.Buffer
	if err := WriteDense(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Dims[1] != 5 {
		t.Fatalf("empty round trip: %v", got.Dims)
	}
}
