package blockstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"twopcp/internal/mat"
)

// Binary layout of a serialized unit (little-endian), the whole of a
// FileStore unit file:
//
//	magic "TPU2"
//	int32 mode, part, rows, F (≥ 1), L
//	A     rows·F float64, row-major
//	slab  rows·(L·F) float64, row-major (Unit.Slab)
//
// The header fixes every offset, so the file's size is known from it to the
// byte and A can be overwritten in place.
const (
	unitMagic       = "TPU2"
	unitHeaderBytes = len(unitMagic) + 5*4
)

// AppendMatrix appends the encoding of one matrix (int32 rows, int32 cols,
// float64 data, little-endian) to dst. Runstate's checkpoints and Phase-1's
// MapReduce sub-factor shuffle build their records with it.
func AppendMatrix(dst []byte, m *mat.Matrix) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(m.Rows)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(m.Cols)))
	return mat.AppendFloats(dst, m.Data)
}

// DecodeMatrix decodes one AppendMatrix encoding from the front
// of b and returns the bytes after it. b is all the input there is, so a
// header that declares more than b holds fails before anything is sized by
// it.
func DecodeMatrix(b []byte) (*mat.Matrix, []byte, error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("blockstore: %d bytes hold no matrix header", len(b))
	}
	rows := int64(int32(binary.LittleEndian.Uint32(b)))
	cols := int64(int32(binary.LittleEndian.Uint32(b[4:])))
	b = b[8:]
	if rows < 0 || cols < 0 {
		return nil, nil, fmt.Errorf("blockstore: negative matrix shape %d×%d", rows, cols)
	}
	// rows·cols of two int32s fits int64; dividing keeps the byte count
	// from overflowing.
	if rows*cols > int64(len(b))/8 {
		return nil, nil, fmt.Errorf("blockstore: matrix shape %d×%d needs more than the %d bytes left", rows, cols, len(b))
	}
	m := mat.New(int(rows), int(cols))
	mat.DecodeFloats(m.Data, b)
	return m, b[8*len(m.Data):], nil
}

// maxDecodeBytes bounds the payload one matrix header may declare (2^34
// bytes = 16 GiB of float64): ReadMatrix cannot know how long its input
// is, so a damaged header fails as a decode error before it sizes an
// allocation nothing could back.
const maxDecodeBytes = int64(1) << 34

// ReadMatrix deserializes one AppendMatrix encoding from r.
func ReadMatrix(r io.Reader) (*mat.Matrix, error) {
	var hdr [2]int32
	if err := binary.Read(r, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("blockstore: read matrix header: %w", err)
	}
	if hdr[0] < 0 || hdr[1] < 0 {
		return nil, fmt.Errorf("blockstore: negative matrix shape %d×%d", hdr[0], hdr[1])
	}
	// Compare in elements to stay overflow-safe: rows·cols of two int32s
	// fits int64, but the byte count may not.
	if elems := int64(hdr[0]) * int64(hdr[1]); elems > maxDecodeBytes/8 {
		return nil, fmt.Errorf("blockstore: matrix shape %d×%d declares %d elements, more than the %d-byte decode limit holds (corrupt header?)",
			hdr[0], hdr[1], elems, maxDecodeBytes)
	}
	m := mat.New(int(hdr[0]), int(hdr[1]))
	if err := mat.ReadFloats(r, m.Data); err != nil {
		return nil, fmt.Errorf("blockstore: read matrix data: %w", err)
	}
	return m, nil
}

// EncodeUnit serializes u, whole, to w; a per-block U is packed first.
func EncodeUnit(w io.Writer, u *Unit) error {
	slab, err := PackSlab(u)
	if err != nil {
		return err
	}
	head := []byte(unitMagic)
	for _, v := range [5]int{u.Mode, u.Part, u.A.Rows, u.A.Cols, slab.Cols / u.A.Cols} {
		if int(int32(v)) != v {
			return fmt.Errorf("%w: encode ⟨%d,%d⟩: header field %d does not fit int32", ErrShape, u.Mode, u.Part, v)
		}
		head = binary.LittleEndian.AppendUint32(head, uint32(v))
	}
	_, err = w.Write(head)
	for _, vals := range [][]float64{u.A.Data, slab.Data} {
		if err == nil {
			err = mat.WriteFloats(w, vals)
		}
	}
	if err != nil {
		return fmt.Errorf("blockstore: write unit: %w", err)
	}
	return nil
}

// parseUnitHeader checks the magic and returns the header's mode, part,
// rows, F and L, none negative.
func parseUnitHeader(b []byte) (hdr [5]int64, err error) {
	if string(b[:len(unitMagic)]) != unitMagic {
		return hdr, fmt.Errorf("blockstore: bad magic %q", b[:len(unitMagic)])
	}
	for i := range hdr {
		hdr[i] = int64(int32(binary.LittleEndian.Uint32(b[len(unitMagic)+4*i:])))
		if hdr[i] < 0 {
			return hdr, fmt.Errorf("blockstore: negative unit header field %d", hdr[i])
		}
	}
	return hdr, nil
}

// DecodeUnitWithin deserializes a unit from the size bytes r holds (a
// file's real size). The header must account for size to the byte, and is
// checked before anything is sized by it, so a damaged one fails cleanly
// instead of attempting an allocation the input could not back. The payload
// is read straight into the unit's one allocation, of which A and Slab are
// two views.
func DecodeUnitWithin(r io.Reader, size int64) (*Unit, error) {
	if size < int64(unitHeaderBytes) {
		return nil, fmt.Errorf("blockstore: %d bytes cannot hold a unit header", size)
	}
	var raw [unitHeaderBytes]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return nil, fmt.Errorf("blockstore: read unit: %w", err)
	}
	hdr, err := parseUnitHeader(raw[:])
	if err != nil {
		return nil, err
	}
	// 8·rows·F·(1+L) must be the payload's size; the product can pass 2^64.
	over, want := bits.Mul64(uint64(hdr[2]*hdr[3]), uint64(8*(1+hdr[4])))
	if hdr[3] == 0 || over != 0 || want != uint64(size-int64(unitHeaderBytes)) {
		return nil, fmt.Errorf("blockstore: header declares %d×%d with %d slab blocks, which %d bytes do not hold exactly (corrupt header?)",
			hdr[2], hdr[3], hdr[4], size)
	}
	u, vals := newUnit(int(hdr[0]), int(hdr[1]), int(hdr[2]), int(hdr[3]), int(hdr[3]*hdr[4]))
	if err := mat.ReadFloats(r, vals); err != nil {
		return nil, fmt.Errorf("blockstore: read unit: %w", err)
	}
	return u, nil
}
