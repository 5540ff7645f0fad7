package blockstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzDecodeUnit feeds arbitrary bytes to the TPUN decoder under the budget
// FileStore.Get gives it: the input's own length. Contract: the decoder may
// reject input with an error but must never panic; what it allocates is
// bounded by the budget, however large the shapes and counts the input
// declares; and a unit it accepts re-encodes to bytes that decode to the
// same unit again.
//
// The seed corpus is the two part files FileStore writes for a real unit
// plus the damage cases of TestFileStoreGetCorruptUnit.
func FuzzDecodeUnit(f *testing.F) {
	dir := f.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(corruptTestUnit()); err != nil {
		f.Fatal(err)
	}
	for _, half := range []string{"a", "u"} {
		good, err := os.ReadFile(filepath.Join(dir, "unit-1-2."+half+".tpun"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		for _, keep := range []int{1, 3, 4, 9, 12, len(good) / 2, len(good) - 1} {
			f.Add(good[:keep])
		}
		f.Add(append([]byte("XXXX"), good[4:]...)) // bad magic
	}
	f.Add([]byte{})
	for _, hdr := range [][]int32{
		{1, 2, 1 << 30, 1 << 30},  // mode, part, then a ~2^60-element A
		{1, 2, 40000, 50000},      // a "plausible" 16 GB A
		{1, 2, 0, 0, 1 << 20},     // 0×0 A, then a million U entries
		{1, 2, 0, 0, 1, 7, -1, 3}, // one U entry of negative shape
	} {
		var buf bytes.Buffer
		buf.WriteString(unitMagic)
		binary.Write(&buf, binary.LittleEndian, hdr)
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		budget := int64(len(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u, err := DecodeUnitWithin(bytes.NewReader(data), budget)
		runtime.ReadMemStats(&after)
		// Decoding costs the matrices, binary.Read's staging copy of each
		// and the U map: a small multiple of the input, plus fixed reader
		// buffers. A header-sized allocation would be orders beyond it.
		if got, limit := int64(after.TotalAlloc-before.TotalAlloc), 8*budget+1<<20; got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", budget, got, limit)
		}
		if err != nil {
			return
		}
		if u.Bytes() > budget || int64(len(u.U)) > budget/12 {
			t.Fatalf("%d input bytes decoded to %d payload bytes in %d U entries", budget, u.Bytes(), len(u.U))
		}
		// Compare through the encoding: NaN payloads are legal and != themselves.
		var first, second bytes.Buffer
		if err := EncodeUnit(&first, u); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeUnitWithin(bytes.NewReader(first.Bytes()), int64(first.Len()))
		if err != nil {
			t.Fatalf("decode of re-encoded unit: %v", err)
		}
		if err := EncodeUnit(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-encoded unit does not decode to itself")
		}
	})
}
