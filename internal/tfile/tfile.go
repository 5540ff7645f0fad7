// Package tfile implements .tptl, the tiled on-disk tensor format that
// makes Phase 1 out-of-core: a dense tensor is stored as grid-aligned
// tiles so any block can be read without materializing the whole tensor,
// and tensors larger than memory can be written tile by tile.
//
// # File format (.tptl, little-endian)
//
//	offset            field
//	0                 magic "TPTL" (4 bytes)
//	4                 uint32 version (currently 1)
//	8                 uint32 flags (bit 0: tiles gzip-compressed,
//	                                bit 1: per-tile CRC32 present)
//	12                uint32 nmodes N
//	16                N × uint64 dims I_1..I_N
//	16+8N             N × uint32 tiles-per-mode T_1..T_N
//	16+12N            index: Π T_i entries of
//	                    uint64 payload offset (from file start)
//	                    uint64 stored payload size in bytes
//	                    uint32 CRC32 (IEEE) of the stored payload
//	                          (0 when the CRC flag is clear)
//	                    uint32 reserved (0)
//	...               tile payloads, in whatever order they were written
//
// Bytes 12 to 16+8N are the shape header of .tpdn and .tpsp files, written
// and read by internal/tensor's AppendShape and ReadShape.
//
// Mode i is split into T_i near-equal ranges following the grid.Pattern
// convention (the first dims[i] mod T_i tiles are one element longer), so
// the file tiling IS a grid.Pattern and all index arithmetic is shared.
// Index entries are ordered by Fortran-linear tile id (mode 0 fastest),
// matching grid.Pattern.Linear. A tile payload is the tile's cells as
// float64 in Fortran order within the tile, optionally gzip-compressed;
// the CRC covers the stored (on-disk) bytes so corruption is detected
// before decompression.
//
// The Writer accepts tiles in any order and back-patches the index on
// Close, holding only O(64 KiB) of buffer beyond the caller's current
// tile — tensors far larger than memory can be produced by synthesizing
// one tile at a time. The Reader is safe for concurrent use (it reads
// through an io.ReaderAt), which lets Phase-1 workers pull blocks in
// parallel.
package tfile

import "math"

// Magic is the 4-byte signature that opens every .tptl file.
const Magic = "TPTL"

// Version is the current format version.
const Version = 1

// Format flags (header "flags" field).
const (
	// FlagGzip marks tile payloads as gzip-compressed.
	FlagGzip = 1 << 0
	// FlagCRC marks the index as carrying per-tile CRC32 checksums.
	FlagCRC = 1 << 1

	flagsKnown = FlagGzip | FlagCRC
)

// indexEntrySize is the on-disk size of one index record.
const indexEntrySize = 8 + 8 + 4 + 4

// headerSize returns the byte length of the fixed header plus dims and
// tiling arrays (everything before the index) for an n-mode tensor.
func headerSize(n int) int64 { return 16 + 12*int64(n) }

// AutoTiles picks a tiling for dims where every tile holds at most
// maxTileElems cells (default 1<<22 ≈ 32 MiB of float64 when
// maxTileElems <= 0): modes are split as evenly as possible, largest
// mode first, until the bound holds. The result is always a valid
// tiles-per-mode vector for grid.New.
func AutoTiles(dims []int, maxTileElems int) []int {
	if maxTileElems <= 0 {
		maxTileElems = 1 << 22
	}
	tiles := make([]int, len(dims))
	for i := range tiles {
		tiles[i] = 1
	}
	for {
		// Current worst-case tile cell count (ceil division per mode).
		elems := int64(1)
		for i, d := range dims {
			elems *= int64((d + tiles[i] - 1) / tiles[i])
		}
		if elems <= int64(maxTileElems) {
			return tiles
		}
		// Split the mode with the largest per-tile extent further.
		best, bestExtent := -1, 1
		for i, d := range dims {
			extent := (d + tiles[i] - 1) / tiles[i]
			if extent > bestExtent && tiles[i] < d {
				best, bestExtent = i, extent
			}
		}
		if best < 0 {
			return tiles // every mode fully split; nothing more to do
		}
		tiles[best]++
	}
}

// float64Bytes is how many payload bytes n cells occupy uncompressed.
func float64Bytes(n int) int64 { return int64(n) * 8 }

// sanePayload reports whether a stored payload size is plausible for a
// tile of rawElems cells: uncompressed payloads must match exactly;
// compressed ones must not exceed the raw size by more than the gzip
// framing overhead allows.
func sanePayload(stored int64, rawElems int, gzipped bool) bool {
	raw := float64Bytes(rawElems)
	if !gzipped {
		return stored == raw
	}
	// gzip can expand incompressible data slightly; 5 bytes per 32 KiB
	// block plus 18 bytes of framing is the worst case.
	maxSize := raw + raw/(32<<10)*5 + 64
	return stored > 0 && stored <= maxSize && stored <= math.MaxInt64-64
}
