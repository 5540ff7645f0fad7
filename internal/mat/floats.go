package mat

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// The one place that knows how a float64 is stored: its IEEE 754 bits as
// eight little-endian bytes. Every float payload — tiles, Phase-2 units,
// checkpoints, snapshots, tensor files — moves through the four functions
// below. Where a float64's memory already is that encoding (floats_le.go)
// they move the slice's own bytes; elsewhere, and under -tags purego, they
// run the per-value loops at the bottom. Neither does arithmetic, so both
// give the same bytes and the same bits, NaN payloads included.

// floatChunk is how many values the loops convert per Write.
const floatChunk = 8 << 10

// readBufs lends the loops their read buffer, 1 Ki values, so a reader
// that fills a slice in many calls (a tile streamed chunk by chunk)
// allocates one buffer, not one per call.
var readBufs = sync.Pool{New: func() any { return new([8 << 10]byte) }}

// ReadFloats fills dst from the next 8·len(dst) bytes of r. Input that ends
// early, even before its first byte, is an error wrapping
// io.ErrUnexpectedEOF; after an error dst's contents are unspecified.
func ReadFloats(r io.Reader, dst []float64) error {
	if byteView {
		return readFull(r, floatBytes(dst))
	}
	return readFloatsLoop(r, dst)
}

// WriteFloats writes the encoding of v to w.
func WriteFloats(w io.Writer, v []float64) error {
	if byteView {
		_, err := w.Write(floatBytes(v))
		return err
	}
	return writeFloatsLoop(w, v)
}

// AppendFloats appends the encoding of v to b and returns the extended
// slice.
func AppendFloats(b []byte, v []float64) []byte {
	if byteView {
		return append(b, floatBytes(v)...)
	}
	return appendFloatsLoop(b, v)
}

// DecodeFloats fills dst from the first 8·len(dst) bytes of b; it panics
// when b is shorter.
func DecodeFloats(dst []float64, b []byte) {
	if len(b) < 8*len(dst) {
		panic("mat: DecodeFloats: input shorter than dst")
	}
	if byteView {
		copy(floatBytes(dst), b)
		return
	}
	decodeFloatsLoop(dst, b)
}

// AppendMatrix appends the encoding of one matrix (int32 rows, int32 cols,
// then its float64 data row-major) to dst. Runstate's checkpoints and
// Phase-1's MapReduce sub-factor shuffle build their records with it.
func AppendMatrix(dst []byte, m *Matrix) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(m.Rows)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(m.Cols)))
	return AppendFloats(dst, m.Data)
}

// DecodeMatrix decodes one AppendMatrix encoding from the front of b and
// returns the bytes after it. b is all the input there is, so a header that
// declares more than b holds fails before anything is sized by it.
func DecodeMatrix(b []byte) (*Matrix, []byte, error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("mat: %d bytes hold no matrix header", len(b))
	}
	rows := int64(int32(binary.LittleEndian.Uint32(b)))
	cols := int64(int32(binary.LittleEndian.Uint32(b[4:])))
	b = b[8:]
	if rows < 0 || cols < 0 {
		return nil, nil, fmt.Errorf("mat: negative matrix shape %d×%d", rows, cols)
	}
	// rows·cols of two int32s fits int64; dividing keeps the byte count
	// from overflowing.
	if rows*cols > int64(len(b))/8 {
		return nil, nil, fmt.Errorf("mat: matrix shape %d×%d needs more than the %d bytes left", rows, cols, len(b))
	}
	m := New(int(rows), int(cols))
	DecodeFloats(m.Data, b)
	return m, b[8*len(m.Data):], nil
}

// readFull is io.ReadFull, with input that ends before b's first byte
// reported as the short input it is.
func readFull(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func readFloatsLoop(r io.Reader, dst []float64) error {
	buf := readBufs.Get().(*[8 << 10]byte)
	defer readBufs.Put(buf)
	for len(dst) > 0 {
		n := min(len(dst), len(buf)/8)
		if err := readFull(r, buf[:8*n]); err != nil {
			return err
		}
		decodeFloatsLoop(dst[:n], buf[:])
		dst = dst[n:]
	}
	return nil
}

func writeFloatsLoop(w io.Writer, v []float64) error {
	buf := make([]byte, 0, 8*min(len(v), floatChunk))
	for len(v) > 0 {
		n := min(len(v), floatChunk)
		if _, err := w.Write(appendFloatsLoop(buf, v[:n])); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

func appendFloatsLoop(b []byte, v []float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func decodeFloatsLoop(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
