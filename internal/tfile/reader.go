package tfile

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"

	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// Reader gives random access to the tiles of a .tptl file. All header
// and index validation happens in Open/NewReader, before any
// payload-sized allocation. ReadTile is safe for concurrent use: every
// call reads through the shared io.ReaderAt with its own section
// reader, so Phase-1 workers can pull tiles in parallel.
type Reader struct {
	ra      io.ReaderAt
	file    *os.File // non-nil when opened via Open (owns Close)
	size    int64
	pattern *grid.Pattern
	flags   uint32
	index   []indexEntry
}

// Open opens the named .tptl file for tile access.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tfile: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tfile: %w", err)
	}
	r, err := NewReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.file = f
	return r, nil
}

// NewReader parses the header and index of a .tptl stream of the given
// total size. The caller keeps ownership of ra unless the Reader came
// from Open.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	var fixed [12]byte
	if _, err := ra.ReadAt(fixed[:], 0); err != nil {
		return nil, fmt.Errorf("tfile: read header: %w", err)
	}
	if string(fixed[:4]) != Magic {
		return nil, fmt.Errorf("tfile: bad magic %q, want %q", fixed[:4], Magic)
	}
	if v := binary.LittleEndian.Uint32(fixed[4:]); v != Version {
		return nil, fmt.Errorf("tfile: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint32(fixed[8:])
	if flags&^uint32(flagsKnown) != 0 {
		return nil, fmt.Errorf("tfile: unknown flags %#x", flags&^uint32(flagsKnown))
	}
	hdr := io.NewSectionReader(ra, int64(len(fixed)), size-int64(len(fixed)))
	dims, _, err := tensor.ReadShape(hdr)
	if err != nil {
		return nil, fmt.Errorf("tfile: %w", err)
	}
	n := len(dims)
	tb := make([]byte, 4*n)
	if _, err := io.ReadFull(hdr, tb); err != nil {
		return nil, fmt.Errorf("tfile: read tiling: %w", err)
	}
	tiles := make([]int, n)
	for i := range tiles {
		tiles[i] = int(binary.LittleEndian.Uint32(tb[4*i:]))
	}
	p, err := grid.New(dims, tiles)
	if err != nil {
		return nil, fmt.Errorf("tfile: bad tiling: %w", err)
	}
	nt := p.NumBlocks()
	idxOff := headerSize(n)
	idxLen := int64(nt) * indexEntrySize
	if idxOff+idxLen > size {
		return nil, fmt.Errorf("tfile: file size %d too small for %d-tile index", size, nt)
	}
	raw := make([]byte, idxLen)
	if _, err := ra.ReadAt(raw, idxOff); err != nil {
		return nil, fmt.Errorf("tfile: read index: %w", err)
	}
	r := &Reader{ra: ra, size: size, pattern: p, flags: flags, index: make([]indexEntry, nt)}
	gz := flags&FlagGzip != 0
	vec := make([]int, n)
	for i := range r.index {
		off := i * indexEntrySize
		e := indexEntry{
			Offset: binary.LittleEndian.Uint64(raw[off:]),
			Size:   binary.LittleEndian.Uint64(raw[off+8:]),
			CRC:    binary.LittleEndian.Uint32(raw[off+16:]),
		}
		_, tsz := p.Block(p.Unlinear(i, vec))
		elems := 1
		for _, s := range tsz {
			elems *= s
		}
		if e.Offset < uint64(idxOff+idxLen) || e.Offset > uint64(size) ||
			e.Size > uint64(size) || int64(e.Offset) > size-int64(e.Size) {
			return nil, fmt.Errorf("tfile: tile %d payload [%d,+%d) outside file of %d bytes",
				i, e.Offset, e.Size, size)
		}
		if !sanePayload(int64(e.Size), elems, gz) {
			return nil, fmt.Errorf("tfile: tile %d stored size %d implausible for %d cells",
				i, e.Size, elems)
		}
		r.index[i] = e
	}
	return r, nil
}

// Dims returns the tensor mode sizes.
func (r *Reader) Dims() []int { return append([]int(nil), r.pattern.Dims...) }

// Tiling returns the file's tile grid.
func (r *Reader) Tiling() *grid.Pattern { return r.pattern }

// ReadTile reads the tile at grid position vec into a fresh dense
// tensor of the tile's extents, verifying its CRC when present.
func (r *Reader) ReadTile(vec []int) (*tensor.Dense, error) {
	return r.ReadTileInto(nil, vec)
}

// ReadTileInto is ReadTile into buf's storage when buf has room for the
// tile's cells; a nil or smaller buf is replaced by a fresh tensor. A
// caller that streams tiles one at a time hands the previous tile back, so
// a pass over the file allocates once instead of once per tile. After an
// error buf's contents are unspecified.
func (r *Reader) ReadTileInto(buf *tensor.Dense, vec []int) (*tensor.Dense, error) {
	_, size := r.pattern.Block(vec)
	out := tensor.Reuse(buf, size...)
	if err := r.StreamTile(vec, out.Data, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// StreamTile reads the cells of the tile at vec, in Fortran order, through
// chunk: each time chunk fills, and once more with the rest when the tile
// ends, it calls fill (when non-nil) with the tile-linear index of the
// chunk's first cell and the cells read. A chunk as long as the tile is
// one read straight into it, which is ReadTileInto. The stored CRC, the
// gzip trailer and the tile's declared length are checked after the last
// fill; on an error, nothing fill was handed may be used.
func (r *Reader) StreamTile(vec []int, chunk []float64, fill func(off int, cells []float64)) error {
	id := r.pattern.Linear(vec)
	e := r.index[id]
	_, size := r.pattern.Block(vec)
	n := 1
	for _, d := range size {
		n *= d
	}
	if len(chunk) == 0 {
		return fmt.Errorf("tfile: tile %v: empty chunk", vec)
	}

	var src io.Reader = io.NewSectionReader(r.ra, int64(e.Offset), int64(e.Size))
	var crc hash.Hash32
	if r.flags&FlagCRC != 0 {
		crc = crc32.NewIEEE()
		src = io.TeeReader(src, crc)
	}
	cells := src
	var zr *gzip.Reader
	if r.flags&FlagGzip != 0 {
		var err error
		if zr, err = gzip.NewReader(src); err != nil {
			return fmt.Errorf("tfile: tile %v: gzip: %w", vec, err)
		}
		cells = zr
	}
	for off := 0; off < n; off += len(chunk) {
		c := chunk[:min(len(chunk), n-off)]
		if err := mat.ReadFloats(cells, c); err != nil {
			return fmt.Errorf("tfile: tile %v: read cells: %w", vec, err)
		}
		if fill != nil {
			fill(off, c)
		}
	}
	if zr != nil {
		// Drain to EOF so the gzip trailer (its own CRC32/ISIZE) is read
		// and verified even when the file carries no per-tile CRC — and
		// reject streams that inflate past the tile's declared cells.
		if extra, err := io.Copy(io.Discard, zr); err != nil {
			return fmt.Errorf("tfile: tile %v: gzip: %w", vec, err)
		} else if extra > 0 {
			return fmt.Errorf("tfile: tile %v: %d bytes beyond the declared %d cells",
				vec, extra, n)
		}
		if err := zr.Close(); err != nil {
			return fmt.Errorf("tfile: tile %v: gzip: %w", vec, err)
		}
	}
	if crc != nil {
		// Drain any trailing stored bytes (gzip framing the decoder did
		// not consume) so the CRC covers the whole payload.
		if _, err := io.Copy(io.Discard, src); err != nil {
			return fmt.Errorf("tfile: tile %v: %w", vec, err)
		}
		if got := crc.Sum32(); got != e.CRC {
			return fmt.Errorf("tfile: tile %v CRC mismatch: stored %#x, computed %#x",
				vec, e.CRC, got)
		}
	}
	return nil
}

// Close releases the underlying file when the Reader owns it.
func (r *Reader) Close() error {
	if r.file != nil {
		return r.file.Close()
	}
	return nil
}
