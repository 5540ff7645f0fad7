package tfile

import (
	"bytes"
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

// WriterOption configures NewWriter / Create.
type WriterOption func(*Writer)

// WithGzip stores tile payloads gzip-compressed.
func WithGzip() WriterOption { return func(w *Writer) { w.flags |= FlagGzip } }

// WithoutCRC drops the per-tile CRC32 checksums (on by default).
func WithoutCRC() WriterOption { return func(w *Writer) { w.flags &^= FlagCRC } }

type indexEntry struct {
	Offset uint64
	Size   uint64
	CRC    uint32
	_      uint32 // reserved
}

// Writer streams a .tptl file. Tiles may arrive in any order, each
// exactly once; the index is back-patched on Close. The writer holds no
// tile beyond the one the caller passes to WriteTile, so tensors larger
// than memory can be written.
//
// A Writer is not safe for concurrent use.
type Writer struct {
	f       io.WriteSeeker
	file    *os.File // non-nil when opened via Create (owns Sync/Close)
	pattern *grid.Pattern
	flags   uint32
	index   []indexEntry
	done    []bool
	left    int
	off     int64 // next payload append offset
	err     error // sticky
}

// Create opens (creating or truncating) path and returns a Writer over
// it. dims are the tensor mode sizes and tiles the tiles-per-mode
// vector; both follow grid.New's validation rules.
func Create(path string, dims, tiles []int, opts ...WriterOption) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tfile: %w", err)
	}
	w, err := NewWriter(f, dims, tiles, opts...)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w.file = f
	return w, nil
}

// NewWriter starts a .tptl stream on f, writing the header and a
// zeroed index immediately. The caller keeps ownership of f unless the
// Writer came from Create.
func NewWriter(f io.WriteSeeker, dims, tiles []int, opts ...WriterOption) (*Writer, error) {
	// Refuse dims the Reader would refuse, by the Reader's own check.
	if _, _, err := tensor.ReadShape(bytes.NewReader(tensor.AppendShape(nil, dims))); err != nil {
		return nil, fmt.Errorf("tfile: %w", err)
	}
	p, err := grid.New(dims, tiles)
	if err != nil {
		return nil, fmt.Errorf("tfile: %w", err)
	}
	w := &Writer{
		f:       f,
		pattern: p,
		flags:   FlagCRC,
		index:   make([]indexEntry, p.NumBlocks()),
		done:    make([]bool, p.NumBlocks()),
		left:    p.NumBlocks(),
	}
	for _, o := range opts {
		o(w)
	}
	if err := w.writeHeader(); err != nil {
		return nil, err
	}
	w.off = headerSize(len(dims)) + int64(len(w.index))*indexEntrySize
	return w, nil
}

// Pattern returns the file tiling as a grid pattern.
func (w *Writer) Pattern() *grid.Pattern { return w.pattern }

func (w *Writer) writeHeader() error {
	hdr := []byte(Magic)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint32(hdr, w.flags)
	hdr = tensor.AppendShape(hdr, w.pattern.Dims)
	for _, t := range w.pattern.K {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(t))
	}
	if _, err := w.f.Write(hdr); err != nil {
		return fmt.Errorf("tfile: write header: %w", err)
	}
	// Reserve the index region (zeroed; back-patched on Close).
	zero := make([]byte, int64(len(w.index))*indexEntrySize)
	if _, err := w.f.Write(zero); err != nil {
		return fmt.Errorf("tfile: reserve index: %w", err)
	}
	return nil
}

// WriteTile appends the tile at grid position vec. t's dims must equal
// the tile extents the pattern assigns to vec, and each tile must be
// written exactly once.
func (w *Writer) WriteTile(vec []int, t *tensor.Dense) error {
	if w.err != nil {
		return w.err
	}
	id := w.pattern.Linear(vec)
	if w.done[id] {
		return fmt.Errorf("tfile: tile %v written twice", vec)
	}
	_, size := w.pattern.Block(vec)
	if len(t.Dims) != len(size) {
		return fmt.Errorf("tfile: tile %v has %d modes, want %d", vec, len(t.Dims), len(size))
	}
	for i := range size {
		if t.Dims[i] != size[i] {
			return fmt.Errorf("tfile: tile %v has dims %v, want %v", vec, t.Dims, size)
		}
	}
	stored, crc, err := w.encodePayload(t.Data)
	if err != nil {
		w.err = err
		return err
	}
	w.index[id] = indexEntry{Offset: uint64(w.off), Size: uint64(stored), CRC: crc}
	w.done[id] = true
	w.left--
	w.off += stored
	return nil
}

// encodePayload writes t's cells at the current append position and
// returns the stored byte count and CRC of the stored bytes.
func (w *Writer) encodePayload(data []float64) (int64, uint32, error) {
	cw := &countWriter{w: w.f}
	var sink io.Writer = cw
	var crc hash.Hash32
	if w.flags&FlagCRC != 0 {
		crc = crc32.NewIEEE()
		sink = io.MultiWriter(cw, crc)
	}
	var payload io.Writer = sink
	var zw *gzip.Writer
	if w.flags&FlagGzip != 0 {
		zw = gzip.NewWriter(sink)
		payload = zw
	}
	if err := mat.WriteFloats(payload, data); err != nil {
		return 0, 0, fmt.Errorf("tfile: write tile: %w", err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return 0, 0, fmt.Errorf("tfile: gzip tile: %w", err)
		}
	}
	var sum uint32
	if crc != nil {
		sum = crc.Sum32()
	}
	return cw.n, sum, nil
}

// Close verifies every tile arrived, back-patches the index, syncs and
// (for Create-owned files) closes the underlying file.
func (w *Writer) Close() error {
	if w.err != nil {
		if w.file != nil {
			w.file.Close()
		}
		return w.err
	}
	if w.left > 0 {
		w.err = fmt.Errorf("tfile: Close with %d of %d tiles missing", w.left, len(w.index))
		if w.file != nil {
			w.file.Close()
		}
		return w.err
	}
	if _, err := w.f.Seek(headerSize(len(w.pattern.Dims)), io.SeekStart); err != nil {
		w.err = fmt.Errorf("tfile: seek index: %w", err)
		if w.file != nil {
			w.file.Close()
		}
		return w.err
	}
	idx := make([]byte, int64(len(w.index))*indexEntrySize)
	for i, e := range w.index {
		off := i * indexEntrySize
		binary.LittleEndian.PutUint64(idx[off:], e.Offset)
		binary.LittleEndian.PutUint64(idx[off+8:], e.Size)
		binary.LittleEndian.PutUint32(idx[off+16:], e.CRC)
	}
	if _, err := w.f.Write(idx); err != nil {
		w.err = fmt.Errorf("tfile: write index: %w", err)
		if w.file != nil {
			w.file.Close()
		}
		return w.err
	}
	w.err = fmt.Errorf("tfile: writer closed")
	if w.file != nil {
		if err := w.file.Sync(); err != nil {
			w.file.Close()
			return fmt.Errorf("tfile: sync: %w", err)
		}
		if err := w.file.Close(); err != nil {
			return fmt.Errorf("tfile: close: %w", err)
		}
	}
	return nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
