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
