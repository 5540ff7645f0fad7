// Package factorsnap defines the factor-snapshot file: a compact,
// versioned, immutable serialization of a completed decomposition's
// Kruskal model (λ weights plus one factor matrix per mode), designed to
// be served rather than recomputed.
//
// # Layout
//
// A snapshot is a single file:
//
//	offset 0   magic "TPFS" (4 bytes)
//	offset 4   version        uint32 LE
//	offset 8   header length  uint32 LE (JSON bytes)
//	offset 12  header CRC32   uint32 LE (IEEE, over the JSON bytes)
//	offset 16  header JSON    (dims, rank, λ, option fingerprint, data CRC)
//	...        zero padding to the next multiple of 8
//	...        factor blocks, one per mode, back to back: Dims[n]·Rank
//	           float64 values, little-endian, in mat.Matrix row-major
//	           order (element (i, f) at i·Rank+f)
//
// Every factor block is a multiple of 8 bytes and the data section starts
// on an 8-byte boundary, so on little-endian platforms the mapped file
// reinterprets directly as []float64 — Open returns mat.Matrix views over
// the mapping (zero copies, pages shared between processes through the
// page cache). On other platforms Open falls back to an explicit decode.
//
// # Durability and integrity
//
// Write installs the file with the runstate discipline (temp file, fsync,
// rename, directory fsync), so readers observe either the previous
// complete snapshot or the new complete snapshot, never a torn file. The
// header carries its own CRC32 and a CRC32 of the full data section;
// Open verifies both (reading every page once) and fails with ErrCorrupt
// on any mismatch, exactly like the .tptl and checkpoint readers.
package factorsnap

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"twopcp/internal/mat"
	"twopcp/internal/runstate"
)

// Magic tags every snapshot file.
const Magic = "TPFS"

// Version is the snapshot schema version this package writes and reads.
const Version = 1

// ErrCorrupt marks a snapshot whose framing, CRCs or shape are invalid.
var ErrCorrupt = errors.New("factorsnap: corrupt snapshot")

// ErrVersion marks a snapshot of a schema version this build does not read.
var ErrVersion = errors.New("factorsnap: unsupported snapshot version")

// preambleLen is the fixed-size region before the header JSON: magic,
// version, header length, header CRC.
const preambleLen = 16

// header is the JSON section carrying everything except the factor data.
type header struct {
	// Dims are the mode sizes (factor n is Dims[n]×Rank).
	Dims []int `json:"dims"`
	// Rank is the number of rank-one components F.
	Rank int `json:"rank"`
	// Lambda is the component weight vector λ (length Rank). JSON
	// float64 encoding round-trips exactly, so the weights are bit-exact.
	Lambda []float64 `json:"lambda"`
	// Meta is the producing run's option fingerprint (the same record the
	// checkpoint manifest carries), when the producer had one.
	Meta *runstate.Meta `json:"meta,omitempty"`
	// DataCRC32 is the IEEE CRC32 of the full data section (every factor
	// block, padding excluded).
	DataCRC32 uint32 `json:"data_crc32"`
}

// Snapshot is an opened snapshot: the model plus the mapping behind it.
// The factor matrices may be views over a read-only file mapping — treat
// them as immutable and do not use them after Close.
type Snapshot struct {
	// Dims are the mode sizes.
	Dims []int
	// Rank is the number of rank-one components.
	Rank int
	// Lambda is the component weight vector (length Rank).
	Lambda []float64
	// Meta is the producing run's option fingerprint, if recorded.
	Meta *runstate.Meta
	// Factors holds one Dims[n]×Rank matrix per mode. When Mapped is
	// true their Data slices alias the file mapping (read-only).
	Factors []*mat.Matrix
	// Mapped reports whether Factors view an mmap'd file (true) or
	// heap-decoded copies (false, the portable fallback).
	Mapped bool

	unmap func() error
}

// Close releases the file mapping (a no-op for heap-decoded snapshots).
// The factor matrices must not be used afterwards.
func (s *Snapshot) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	return u()
}

// Write serializes the model to path with the runstate atomic-install
// discipline (temp file, fsync, rename, dirsync). The first factor's column
// count is the rank: every other factor must have exactly that many columns
// and lambda exactly that many weights.
func Write(path string, lambda []float64, factors []*mat.Matrix, meta *runstate.Meta) error {
	if len(factors) == 0 {
		return errors.New("factorsnap: no factor matrices")
	}
	rank := factors[0].Cols
	if len(lambda) != rank {
		return fmt.Errorf("factorsnap: %d lambda weights for rank %d", len(lambda), rank)
	}
	dims := make([]int, len(factors))
	vals := 0
	for n, f := range factors {
		if f.Cols != rank {
			return fmt.Errorf("factorsnap: factor %d has %d cols, want %d", n, f.Cols, rank)
		}
		dims[n] = f.Rows
		vals += f.Rows * f.Cols
	}

	data := make([]byte, 0, vals*8)
	for _, f := range factors {
		data = mat.AppendFloats(data, f.Data)
	}

	hdr, err := json.Marshal(header{
		Dims:      dims,
		Rank:      rank,
		Lambda:    lambda,
		Meta:      meta,
		DataCRC32: crc32.ChecksumIEEE(data),
	})
	if err != nil {
		return fmt.Errorf("factorsnap: marshal header: %w", err)
	}
	dataOff := align8(preambleLen + len(hdr))

	out := make([]byte, 0, dataOff+len(data))
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(hdr))
	out = append(out, hdr...)
	for len(out) < dataOff {
		out = append(out, 0)
	}
	out = append(out, data...)

	dir, name := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	return runstate.WriteFileAtomic(filepath.Clean(dir), name, out)
}

// Open loads the snapshot at path. On little-endian unix platforms the
// file is memory-mapped and the returned factors are zero-copy views; the
// portable fallback reads and decodes the file instead. Both paths verify
// the header and data CRCs before returning. A missing file surfaces the
// underlying fs.ErrNotExist for errors.Is checks.
func Open(path string) (*Snapshot, error) {
	raw, unmap, mapped, err := openBytes(path)
	if err != nil {
		return nil, err
	}
	s, err := decode(raw, mapped)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if mapped {
		s.unmap = unmap
	} else if unmap != nil {
		unmap()
	}
	return s, nil
}

// decode validates raw snapshot bytes and builds the Snapshot, whose factor
// matrices are floatView's: views of raw where the build maps snapshots
// (mapped is then true), decoded copies elsewhere.
func decode(raw []byte, mapped bool) (*Snapshot, error) {
	if len(raw) < preambleLen {
		return nil, fmt.Errorf("%w: %d-byte file is shorter than the %d-byte preamble", ErrCorrupt, len(raw), preambleLen)
	}
	if string(raw[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %s)", ErrCorrupt, raw[:4], Magic)
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != Version {
		return nil, fmt.Errorf("%w %d, this build reads %d", ErrVersion, v, Version)
	}
	hdrLen := int(binary.LittleEndian.Uint32(raw[8:]))
	hdrCRC := binary.LittleEndian.Uint32(raw[12:])
	if hdrLen < 0 || preambleLen+hdrLen > len(raw) {
		return nil, fmt.Errorf("%w: header length %d exceeds the file", ErrCorrupt, hdrLen)
	}
	hdrBytes := raw[preambleLen : preambleLen+hdrLen]
	if crc32.ChecksumIEEE(hdrBytes) != hdrCRC {
		return nil, fmt.Errorf("%w: header CRC mismatch", ErrCorrupt)
	}
	var hdr header
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if hdr.Rank <= 0 || len(hdr.Dims) == 0 || len(hdr.Lambda) != hdr.Rank {
		return nil, fmt.Errorf("%w: header records rank %d, %d dims, %d weights", ErrCorrupt, hdr.Rank, len(hdr.Dims), len(hdr.Lambda))
	}
	dataOff := align8(preambleLen + hdrLen)
	want := 0
	for n, d := range hdr.Dims {
		if d < 0 {
			return nil, fmt.Errorf("%w: negative dim %d for mode %d", ErrCorrupt, d, n)
		}
		// Modes that add up to more than the file cannot be in it; the
		// bound comes before the product so neither it nor the sum can
		// overflow.
		if d > (len(raw)-want)/8/hdr.Rank {
			return nil, fmt.Errorf("%w: mode %d of %d rows of rank %d overruns the %d-byte file", ErrCorrupt, n, d, hdr.Rank, len(raw))
		}
		want += d * hdr.Rank * 8
	}
	if len(raw) != dataOff+want {
		return nil, fmt.Errorf("%w: %d data bytes, header implies %d", ErrCorrupt, len(raw)-dataOff, want)
	}
	data := raw[dataOff:]
	if crc32.ChecksumIEEE(data) != hdr.DataCRC32 {
		return nil, fmt.Errorf("%w: data CRC mismatch", ErrCorrupt)
	}

	s := &Snapshot{
		Dims:    hdr.Dims,
		Rank:    hdr.Rank,
		Lambda:  hdr.Lambda,
		Meta:    hdr.Meta,
		Factors: make([]*mat.Matrix, len(hdr.Dims)),
		Mapped:  mapped,
	}
	vals := floatView(data)
	for n, d := range hdr.Dims {
		k := d * hdr.Rank
		s.Factors[n] = mat.FromSlice(d, hdr.Rank, vals[:k:k])
		vals = vals[k:]
	}
	return s, nil
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }
