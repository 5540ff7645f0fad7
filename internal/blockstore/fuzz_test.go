package blockstore

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// FuzzDecodeUnit feeds arbitrary bytes to the unit decoder the way
// FileStore.Get does: with the input's own length as the size. Contract:
// the decoder may reject input with an error but must never panic; what it
// allocates is bounded by the input, however large the shape the header
// declares; and a unit it accepts is exactly the input — it re-encodes to
// the same bytes.
//
// The seed corpus is the file FileStore writes for a real unit plus the
// damage cases of TestFileStoreGetCorruptUnit.
func FuzzDecodeUnit(f *testing.F) {
	var enc bytes.Buffer
	if err := EncodeUnit(&enc, corruptTestUnit()); err != nil {
		f.Fatal(err)
	}
	good := enc.Bytes()
	f.Add(good)
	for _, keep := range []int{0, 1, 3, 4, 9, 12, unitHeaderBytes - 1, unitHeaderBytes, unitHeaderBytes + 1,
		unitHeaderBytes + corruptABytes/2, corruptAEnd - 1, corruptAEnd, corruptAEnd + 8, corruptLen - 8, corruptLen - 1} {
		f.Add(good[:keep])
	}
	f.Add(append([]byte("XXXX"), good[4:]...))              // bad magic
	f.Add(append([]byte("TPUN"), good[4:]...))              // the previous format's
	f.Add(append(bytes.Clone(good), 0))                     // trailing byte
	f.Add(append(bytes.Clone(good), good[corruptAEnd:]...)) // trailing blocks
	f.Add(unitHeader(1, 2, 0, 5, 3))                        // a unit of no rows
	f.Add(unitHeader(1, 2, 0, 5, math.MaxInt32))            // no rows, absurdly wide
	f.Add(unitHeader(1, 2, 5, 0, 0))                        // no columns: never written
	f.Add(unitHeader(1, 2, 1<<30, 1<<30, 2))                // a ~2^60-element A
	f.Add(unitHeader(1, 2, 40000, 50000, 2))                // a "plausible" 16 GB A
	f.Add(unitHeader(1, 2, 6, 3, 1<<30))                    // a billion slab blocks
	f.Add(unitHeader(1, 2, math.MaxInt32, math.MaxInt32, math.MaxInt32))
	f.Add(append(unitHeader(1, 2, -6, 3, 2), good[unitHeaderBytes:]...)) // negative shape
	f.Add(append(unitHeader(1, 2, 3, 6, 2), good[unitHeaderBytes:]...))  // same size, other shape

	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u, err := DecodeUnitWithin(bytes.NewReader(data), size)
		runtime.ReadMemStats(&after)
		// Decoding costs the one float64 slice, at most the input's size,
		// plus a pooled buffer when the pool is cold. A header-sized
		// allocation would be orders beyond it.
		if got, limit := int64(after.TotalAlloc-before.TotalAlloc), size+1<<20; got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", size, got, limit)
		}
		if err != nil {
			return
		}
		if u.U != nil || u.Bytes() != size-int64(unitHeaderBytes) {
			t.Fatalf("%d input bytes decoded to %d payload bytes (U %v)", size, u.Bytes(), u.U)
		}
		// Compare through the encoding: NaN payloads are legal and != themselves.
		var again bytes.Buffer
		if err := EncodeUnit(&again, u); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatal("an accepted unit does not re-encode to its input")
		}
	})
}
