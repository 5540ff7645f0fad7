package blockstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"twopcp/internal/mat"
)

// Binary layout of a serialized unit (little-endian):
//
//	magic "TPUN"
//	int32 mode, int32 part
//	matrix A            (int32 rows, int32 cols, rows·cols float64)
//	int32 number of U entries
//	per entry: int32 block id, matrix
//
// Entries are written in ascending block-id order so the encoding is
// deterministic (useful for content comparison in tests). FileStore keeps
// a unit as two such encodings: an A part (zero U entries) and a U part
// (a 0×0 A).
const unitMagic = "TPUN"

// WriteMatrix serializes one matrix (int32 rows, int32 cols, float64 data,
// little-endian); shared with Phase-1's MapReduce sub-factor shuffle.
func WriteMatrix(w io.Writer, m *mat.Matrix) error { return writeMatrix(w, m) }

// ReadMatrix deserializes a matrix written by WriteMatrix.
func ReadMatrix(r io.Reader) (*mat.Matrix, error) { return readMatrix(r) }

func writeMatrix(w io.Writer, m *mat.Matrix) error {
	hdr := [2]int32{int32(m.Rows), int32(m.Cols)}
	if err := binary.Write(w, binary.LittleEndian, hdr[:]); err != nil {
		return fmt.Errorf("blockstore: write matrix header: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, m.Data); err != nil {
		return fmt.Errorf("blockstore: write matrix data: %w", err)
	}
	return nil
}

// maxDecodeBytes is the fallback matrix-payload budget when the caller
// cannot bound the decode by an actual file size (2^34 bytes = 16 GiB of
// float64). FileStore.Get always can, and passes the file's size instead,
// so a damaged header can never trigger an allocation the file could not
// possibly back.
const maxDecodeBytes = int64(1) << 34

func readMatrix(r io.Reader) (*mat.Matrix, error) {
	budget := maxDecodeBytes
	return readMatrixBudget(r, &budget)
}

// readMatrixBudget decodes one matrix, charging its declared payload
// against *budget before allocating: a header that declares more float64
// data than the budget has left is corrupt by construction (the budget is
// the file size when known), and failing here turns what would be a fatal
// multi-gigabyte allocation attempt into an ordinary decode error.
func readMatrixBudget(r io.Reader, budget *int64) (*mat.Matrix, error) {
	var hdr [2]int32
	if err := binary.Read(r, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("blockstore: read matrix header: %w", err)
	}
	if hdr[0] < 0 || hdr[1] < 0 {
		return nil, fmt.Errorf("blockstore: negative matrix shape %d×%d", hdr[0], hdr[1])
	}
	// Compare in elements to stay overflow-safe: rows·cols of two int32s
	// fits int64, but the byte count may not.
	elems := int64(hdr[0]) * int64(hdr[1])
	if elems > *budget/8 {
		return nil, fmt.Errorf("blockstore: matrix shape %d×%d declares %d elements, more than the %d-byte decode budget holds (corrupt header?)",
			hdr[0], hdr[1], elems, *budget)
	}
	*budget -= elems * 8
	m := mat.New(int(hdr[0]), int(hdr[1]))
	if err := binary.Read(r, binary.LittleEndian, m.Data); err != nil {
		return nil, fmt.Errorf("blockstore: read matrix data: %w", err)
	}
	return m, nil
}

// EncodeUnit serializes u to w.
func EncodeUnit(w io.Writer, u *Unit) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(unitMagic); err != nil {
		return fmt.Errorf("blockstore: write magic: %w", err)
	}
	hdr := [2]int32{int32(u.Mode), int32(u.Part)}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return fmt.Errorf("blockstore: write unit header: %w", err)
	}
	if err := writeMatrix(bw, u.A); err != nil {
		return err
	}
	ids := make([]int, 0, len(u.U))
	for id := range u.U {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if err := binary.Write(bw, binary.LittleEndian, int32(len(ids))); err != nil {
		return fmt.Errorf("blockstore: write U count: %w", err)
	}
	for _, id := range ids {
		if err := binary.Write(bw, binary.LittleEndian, int32(id)); err != nil {
			return fmt.Errorf("blockstore: write block id: %w", err)
		}
		if err := writeMatrix(bw, u.U[id]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeUnit deserializes a unit from r with the fallback decode budget.
func DecodeUnit(r io.Reader) (*Unit, error) {
	return DecodeUnitWithin(r, maxDecodeBytes)
}

// DecodeUnitWithin deserializes a unit whose encoding is at most maxBytes
// long, so neither its matrix payload nor its U count can exceed what that
// many bytes hold. FileStore.Get passes each part file's actual size, so
// corrupt headers fail cleanly instead of sizing allocations from garbage.
func DecodeUnitWithin(r io.Reader, maxBytes int64) (*Unit, error) {
	if maxBytes <= 0 || maxBytes > maxDecodeBytes {
		maxBytes = maxDecodeBytes
	}
	budget := maxBytes
	br := bufio.NewReader(r)
	magic := make([]byte, len(unitMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("blockstore: read magic: %w", err)
	}
	if string(magic) != unitMagic {
		return nil, fmt.Errorf("blockstore: bad magic %q", magic)
	}
	var hdr [2]int32
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("blockstore: read unit header: %w", err)
	}
	a, err := readMatrixBudget(br, &budget)
	if err != nil {
		return nil, err
	}
	var n int32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("blockstore: read U count: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("blockstore: negative U count %d", n)
	}
	// An entry is at least a block id and a matrix header: 12 bytes.
	if n > 1<<24 || int64(n) > maxBytes/12 {
		return nil, fmt.Errorf("blockstore: U count %d is implausibly large (corrupt header?)", n)
	}
	u := &Unit{Mode: int(hdr[0]), Part: int(hdr[1]), A: a, U: make(map[int]*mat.Matrix, n)}
	for i := int32(0); i < n; i++ {
		var id int32
		if err := binary.Read(br, binary.LittleEndian, &id); err != nil {
			return nil, fmt.Errorf("blockstore: read block id: %w", err)
		}
		m, err := readMatrixBudget(br, &budget)
		if err != nil {
			return nil, err
		}
		u.U[int(id)] = m
	}
	return u, nil
}
