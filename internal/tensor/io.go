package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"twopcp/internal/mat"
)

// Binary file format (little-endian):
//
//	dense:  magic "TPDN", shape header, then Π dims float64 values in
//	        Fortran order.
//	sparse: magic "TPSP", shape header, uint64 nnz, then nnz records of
//	        (nmodes × uint64 coords, float64 value).
//
// The shape header — uint32 nmodes, then nmodes × uint64 dims — is also the
// one a .tptl file carries after its version and flags; AppendShape and
// ReadShape are its one encoder and one decoder.
const (
	DenseMagic  = "TPDN"
	SparseMagic = "TPSP"
)

// WriteDense serializes t to w in the twopcp dense binary format.
func WriteDense(w io.Writer, t *Dense) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(AppendShape([]byte(DenseMagic), t.Dims)); err != nil {
		return fmt.Errorf("tensor: write dense header: %w", err)
	}
	if err := mat.WriteFloats(bw, t.Data); err != nil {
		return fmt.Errorf("tensor: write dense data: %w", err)
	}
	return bw.Flush()
}

// ReadDense deserializes a dense tensor from r. The header is
// validated against sane limits — and, when r is a file, against the
// file's actual size — before the payload allocation, so a corrupt or
// hostile header cannot trigger a multi-GB (or overflowed) allocation.
func ReadDense(r io.Reader) (*Dense, error) {
	limit := remainingBytes(r)
	br := bufio.NewReader(r)
	if err := expectMagic(br, DenseMagic); err != nil {
		return nil, err
	}
	dims, n, err := ReadShape(br)
	if err != nil {
		return nil, err
	}
	if need := headerBytes(len(dims)) + 8*n; limit >= 0 && need > limit {
		return nil, fmt.Errorf("tensor: header declares %v (%d bytes) but the file has only %d",
			dims, need, limit)
	}
	t := NewDense(dims...)
	if err := mat.ReadFloats(br, t.Data); err != nil {
		return nil, fmt.Errorf("tensor: read dense data: %w", err)
	}
	return t, nil
}

// WriteCOO serializes t to w in the twopcp sparse binary format.
func WriteCOO(w io.Writer, t *COO) error {
	bw := bufio.NewWriter(w)
	head := binary.LittleEndian.AppendUint64(AppendShape([]byte(SparseMagic), t.Dims), uint64(t.NNZ()))
	if _, err := bw.Write(head); err != nil {
		return fmt.Errorf("tensor: write sparse header: %w", err)
	}
	rec := make([]byte, 0, 8*len(t.Dims)+8)
	for p := range t.Vals {
		rec = rec[:0]
		for m := range t.Dims {
			rec = binary.LittleEndian.AppendUint64(rec, uint64(t.Indices[m][p]))
		}
		if _, err := bw.Write(mat.AppendFloats(rec, t.Vals[p:p+1])); err != nil {
			return fmt.Errorf("tensor: write nonzero: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCOO deserializes a sparse tensor from r. Like ReadDense, the
// declared nnz is validated against sane limits and the file size
// before any proportional allocation.
func ReadCOO(r io.Reader) (*COO, error) {
	limit := remainingBytes(r)
	br := bufio.NewReader(r)
	if err := expectMagic(br, SparseMagic); err != nil {
		return nil, err
	}
	dims, _, err := ReadShape(br)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, 8*len(dims)+8)
	if _, err := io.ReadFull(br, rec[:8]); err != nil {
		return nil, fmt.Errorf("tensor: read nnz: %w", err)
	}
	nnz := binary.LittleEndian.Uint64(rec)
	if nnz > maxTensorElems {
		return nil, fmt.Errorf("tensor: implausible nnz %d", nnz)
	}
	if need := headerBytes(len(dims)) + 8 + int64(nnz)*int64(len(rec)); limit >= 0 && need > limit {
		return nil, fmt.Errorf("tensor: header declares %d nonzeros (%d bytes) but the file has only %d",
			nnz, need, limit)
	}
	t := NewCOO(dims...)
	idx := make([]int, len(dims))
	v := make([]float64, 1)
	for p := uint64(0); p < nnz; p++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("tensor: read nonzero %d: %w", p, err)
		}
		mat.DecodeFloats(v, rec[8*len(dims):])
		// Validate every coordinate against the declared dims before
		// Append (which panics on out-of-range indices — correct for
		// programmer error, but a corrupt or hostile file must surface as
		// an error). The uint64 comparison also catches coordinates that
		// would overflow int.
		for m := range idx {
			c := binary.LittleEndian.Uint64(rec[8*m:])
			if c >= uint64(dims[m]) {
				return nil, fmt.Errorf("tensor: nonzero %d: coordinate %d on mode %d outside dim %d",
					p, c, m, dims[m])
			}
			idx[m] = int(c)
		}
		t.Append(idx, v[0])
	}
	return t, nil
}

// SaveDense writes t to the named file, creating or truncating it.
func SaveDense(path string, t *Dense) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tensor: %w", err)
	}
	defer f.Close()
	if err := WriteDense(f, t); err != nil {
		return err
	}
	return f.Close()
}

// LoadDense reads a dense tensor from the named file.
func LoadDense(path string) (*Dense, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tensor: %w", err)
	}
	defer f.Close()
	return ReadDense(f)
}

// SaveCOO writes t to the named file, creating or truncating it.
func SaveCOO(path string, t *COO) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tensor: %w", err)
	}
	defer f.Close()
	if err := WriteCOO(f, t); err != nil {
		return err
	}
	return f.Close()
}

// LoadCOO reads a sparse tensor from the named file.
func LoadCOO(path string) (*COO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tensor: %w", err)
	}
	defer f.Close()
	return ReadCOO(f)
}

// AppendShape appends the shape header of dims — uint32 nmodes, then
// nmodes × uint64 dims — to dst.
func AppendShape(dst []byte, dims []int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dims)))
	for _, d := range dims {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(d))
	}
	return dst
}

// maxTensorElems bounds the cell (or nonzero) count a header may
// declare: 2^42 cells = 32 TiB of float64 payload. Anything larger is
// rejected as corrupt before allocation.
const maxTensorElems = 1 << 42

// ReadShape reads one shape header from r and returns its dims and their
// cell count. It reads exactly the header's bytes, and rejects a mode count
// of 0 or above 2^16 and a mode or cell count above 2^42 before anything is
// sized by them. A zero-size mode passes; a format that forbids one checks
// for it itself.
func ReadShape(r io.Reader) ([]int, int64, error) {
	var nb [4]byte
	if _, err := io.ReadFull(r, nb[:]); err != nil {
		return nil, 0, fmt.Errorf("tensor: read nmodes: %w", err)
	}
	n := binary.LittleEndian.Uint32(nb[:])
	if n == 0 || n > 1<<16 {
		return nil, 0, fmt.Errorf("tensor: implausible mode count %d", n)
	}
	raw := make([]byte, 8*int(n))
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, 0, fmt.Errorf("tensor: read dims: %w", err)
	}
	dims := make([]int, n)
	for i := range dims {
		d := binary.LittleEndian.Uint64(raw[8*i:])
		if d > maxTensorElems {
			return nil, 0, fmt.Errorf("tensor: mode %d has implausible size %d", i, d)
		}
		dims[i] = int(d)
	}
	cells, err := checkedLen(dims)
	if err != nil {
		return nil, 0, err
	}
	return dims, cells, nil
}

// checkedLen returns Π dims, rejecting negative sizes and products
// beyond maxTensorElems (including overflowed ones) before any
// allocation proportional to the product.
func checkedLen(dims []int) (int64, error) {
	total := int64(1)
	for i, d := range dims {
		if d < 0 {
			return 0, fmt.Errorf("tensor: mode %d has negative size %d", i, d)
		}
		if d == 0 {
			total = 0
			continue
		}
		if total > maxTensorElems/int64(d) {
			return 0, fmt.Errorf("tensor: dims %v exceed %d total cells", dims, int64(maxTensorElems))
		}
		total *= int64(d)
	}
	return total, nil
}

// headerBytes is the on-disk size of magic + nmodes + dims.
func headerBytes(nmodes int) int64 { return 4 + 4 + 8*int64(nmodes) }

// remainingBytes reports how many bytes r still has when it can tell —
// a file (anything with Stat) or an in-memory reader (anything with
// Len, e.g. bytes.Reader and strings.Reader) — and -1 otherwise. It
// lets the readers reject headers that promise more payload than exists
// before allocating for them; the Len branch is what keeps a fuzzer (or
// any caller decoding an in-memory buffer) from being OOM-killed by a
// 4-byte dims field declaring a terabyte-scale tensor the buffer cannot
// possibly contain.
func remainingBytes(r io.Reader) int64 {
	if l, ok := r.(interface{ Len() int }); ok {
		return int64(l.Len())
	}
	type sizer interface {
		Stat() (os.FileInfo, error)
	}
	s, ok := r.(sizer)
	if !ok {
		return -1
	}
	fi, err := s.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return -1
	}
	size := fi.Size()
	// Account for anything already consumed when r is seekable.
	if sk, ok := r.(io.Seeker); ok {
		if pos, err := sk.Seek(0, io.SeekCurrent); err == nil {
			return size - pos
		}
	}
	return size
}

func expectMagic(r io.Reader, want string) error {
	buf := make([]byte, len(want))
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("tensor: read magic: %w", err)
	}
	if string(buf) != want {
		return fmt.Errorf("tensor: bad magic %q, want %q", buf, want)
	}
	return nil
}
