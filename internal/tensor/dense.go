// Package tensor provides the N-mode tensor substrate for twopcp: dense
// tensors (Fortran-ordered, mode-1 fastest), sparse COO tensors, mode-n
// unfolding, Khatri-Rao products and MTTKRP — the kernels that CP-ALS and
// the grid decomposition are built from.
//
// Layout convention. Dense data follows the tensor-literature vectorization
// (Kolda & Bader): element (i_1, ..., i_N) lives at offset
// i_1 + I_1·i_2 + I_1·I_2·i_3 + ..., i.e. the first mode varies fastest.
// Mode-n unfolding and Khatri-Rao ordering in this package are consistent
// with that convention, so
//
//	MTTKRP(X, A, n) == Unfold(X, n) · KhatriRaoSkip(A, n)
//
// holds exactly (and is verified by the test suite).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"twopcp/internal/mat"
)

// Dense is a dense N-mode tensor.
type Dense struct {
	Dims []int     // mode sizes I_1..I_N
	Data []float64 // Fortran-ordered values, len = Π Dims
}

// NewDense returns a zero dense tensor with the given mode sizes.
// It panics on negative sizes.
func NewDense(dims ...int) *Dense {
	n := 1
	for _, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("tensor: NewDense%v: negative dimension", dims))
		}
		n *= d
	}
	return &Dense{Dims: append([]int(nil), dims...), Data: make([]float64, n)}
}

// Reuse returns buf reshaped to dims when its storage has room for that
// many cells, leaving their values as they are, and NewDense(dims...)
// otherwise. A larger buffer keeps its capacity, so a later Reuse can
// grow back into it.
func Reuse(buf *Dense, dims ...int) *Dense {
	n := 1
	for _, d := range dims {
		n *= d
	}
	if buf == nil || cap(buf.Data) < n {
		return NewDense(dims...)
	}
	buf.Dims = append(buf.Dims[:0], dims...)
	buf.Data = buf.Data[:n]
	return buf
}

// NModes returns the number of modes (the order) of the tensor.
func (t *Dense) NModes() int { return len(t.Dims) }

// Len returns the total number of cells, Π Dims.
func (t *Dense) Len() int { return len(t.Data) }

// Strides returns the Fortran-order strides: stride[0] = 1,
// stride[k] = Π_{m<k} I_m.
func (t *Dense) Strides() []int {
	s := make([]int, len(t.Dims))
	acc := 1
	for k, d := range t.Dims {
		s[k] = acc
		acc *= d
	}
	return s
}

// Offset returns the linear offset of the multi-index idx.
func (t *Dense) Offset(idx []int) int {
	if len(idx) != len(t.Dims) {
		panic(fmt.Sprintf("tensor: Offset: %d indexes for %d modes", len(idx), len(t.Dims)))
	}
	off, stride := 0, 1
	for k, i := range idx {
		if i < 0 || i >= t.Dims[k] {
			panic(fmt.Sprintf("tensor: index %v out of range of dims %v", idx, t.Dims))
		}
		off += i * stride
		stride *= t.Dims[k]
	}
	return off
}

// At returns the value at the multi-index idx.
func (t *Dense) At(idx ...int) float64 { return t.Data[t.Offset(idx)] }

// Set stores v at the multi-index idx.
func (t *Dense) Set(v float64, idx ...int) { t.Data[t.Offset(idx)] = v }

// Clone returns a deep copy of t.
func (t *Dense) Clone() *Dense {
	out := NewDense(t.Dims...)
	copy(out.Data, t.Data)
	return out
}

// Norm returns the Frobenius norm ‖t‖. It stays small enough to inline,
// as the serial loop it replaced was, so its callers keep their code.
func (t *Dense) Norm() float64 { return math.Sqrt(sumSquares(t.Data)) }

// sumSquares returns Σ v² over d. The squares go through mat.FoldAdd in
// eight lanes, element i into lane i mod 8, each lane one front-to-back
// chain; the lanes are summed in one fixed tree and the len mod 8 tail is
// added last. So the sum has one order of additions on every kernel path.
func sumSquares(d []float64) float64 {
	var lanes [8]float64
	body := len(d) &^ 7
	mat.FoldAdd(lanes[:], d, 8, d, body/8, 8)
	s := ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
	for i := body; i < len(d); i++ {
		s += d[i] * d[i]
	}
	return s
}

// Dot returns the inner product ⟨t, u⟩. Shapes must match.
func (t *Dense) Dot(u *Dense) float64 {
	if !slices.Equal(t.Dims, u.Dims) {
		panic(fmt.Sprintf("tensor: Dot of %v and %v", t.Dims, u.Dims))
	}
	var s float64
	for i, v := range t.Data {
		s += v * u.Data[i]
	}
	return s
}

// AddInPlace adds u to t element-wise. Shapes must match.
func (t *Dense) AddInPlace(u *Dense) {
	if !slices.Equal(t.Dims, u.Dims) {
		panic(fmt.Sprintf("tensor: AddInPlace of %v and %v", t.Dims, u.Dims))
	}
	for i, v := range u.Data {
		t.Data[i] += v
	}
}

// SubInPlace subtracts u from t element-wise. Shapes must match.
func (t *Dense) SubInPlace(u *Dense) {
	if !slices.Equal(t.Dims, u.Dims) {
		panic(fmt.Sprintf("tensor: SubInPlace of %v and %v", t.Dims, u.Dims))
	}
	for i, v := range u.Data {
		t.Data[i] -= v
	}
}

// Scale multiplies every cell by s.
func (t *Dense) Scale(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// NNZ returns the number of cells with |value| > 0.
func (t *Dense) NNZ() int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// HasNonZero reports whether NNZ() > 0, stopping at the first such cell.
func (t *Dense) HasNonZero() bool {
	for _, v := range t.Data {
		if v != 0 {
			return true
		}
	}
	return false
}

// EqualApprox reports whether t and u share dims and differ by at most tol
// per cell.
func (t *Dense) EqualApprox(u *Dense, tol float64) bool {
	if !slices.Equal(t.Dims, u.Dims) {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(v-u.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Fill applies f to every multi-index, storing the result. The index slice
// passed to f is reused between calls and must not be retained.
func (t *Dense) Fill(f func(idx []int) float64) {
	idx := make([]int, len(t.Dims))
	for off := range t.Data {
		t.Data[off] = f(idx)
		incIndex(idx, t.Dims)
	}
}

// incIndex advances a Fortran-order multi-index (mode 0 fastest).
func incIndex(idx, dims []int) {
	for k := 0; k < len(dims); k++ {
		idx[k]++
		if idx[k] < dims[k] {
			return
		}
		idx[k] = 0
	}
}

// RandomDense returns a tensor with uniform [0,1) entries.
func RandomDense(rng *rand.Rand, dims ...int) *Dense {
	t := NewDense(dims...)
	for i := range t.Data {
		t.Data[i] = rng.Float64()
	}
	return t
}

// SubTensor copies the block starting at from (inclusive) with the given
// size along each mode into a new dense tensor.
func (t *Dense) SubTensor(from, size []int) *Dense {
	if len(from) != len(t.Dims) || len(size) != len(t.Dims) {
		panic("tensor: SubTensor: index arity mismatch")
	}
	out := NewDense(size...)
	CopyRegion(out, make([]int, len(size)), t, from, size)
	return out
}

// CopyRegion copies the size-shaped region of src starting at srcFrom
// into dst starting at dstFrom, without intermediate allocation. It is
// the re-tiling primitive: assembling a grid block from file tiles (or
// vice versa) is a sequence of region copies.
func CopyRegion(dst *Dense, dstFrom []int, src *Dense, srcFrom, size []int) {
	if len(dstFrom) != len(dst.Dims) || len(srcFrom) != len(src.Dims) ||
		len(size) != len(dst.Dims) || len(dst.Dims) != len(src.Dims) {
		panic("tensor: CopyRegion: index arity mismatch")
	}
	for k := range size {
		if size[k] < 0 || srcFrom[k] < 0 || srcFrom[k]+size[k] > src.Dims[k] ||
			dstFrom[k] < 0 || dstFrom[k]+size[k] > dst.Dims[k] {
			panic(fmt.Sprintf("tensor: CopyRegion dstFrom=%v srcFrom=%v size=%v of %v ← %v",
				dstFrom, srcFrom, size, dst.Dims, src.Dims))
		}
	}
	if len(size) == 0 {
		copy(dst.Data, src.Data) // 0-mode scalar tensors
		return
	}
	srcStrides := src.Strides()
	dstStrides := dst.Strides()
	// Copy contiguous mode-0 runs of length size[0].
	run := size[0]
	if run == 0 {
		return
	}
	outer := 1
	for _, s := range size[1:] {
		outer *= s
	}
	idx := make([]int, len(size)-1) // indices over modes 1..N-1
	for c := 0; c < outer; c++ {
		so := srcFrom[0] * srcStrides[0]
		do := dstFrom[0] * dstStrides[0]
		for k, i := range idx {
			so += (srcFrom[k+1] + i) * srcStrides[k+1]
			do += (dstFrom[k+1] + i) * dstStrides[k+1]
		}
		copy(dst.Data[do:do+run], src.Data[so:so+run])
		incIndex(idx, size[1:])
	}
}

// SetSubTensor copies block into t starting at from.
func (t *Dense) SetSubTensor(block *Dense, from []int) {
	CopyRegion(t, from, block, make([]int, len(block.Dims)), block.Dims)
}

// Unfold returns the mode-n unfolding X_(n): an I_n × (Π_{k≠n} I_k) matrix
// where column index j = Σ_{k≠n} i_k · J_k with J_k = Π_{m<k, m≠n} I_m
// (lower modes vary fastest), matching the Kolda & Bader convention.
func (t *Dense) Unfold(n int) *mat.Matrix {
	if n < 0 || n >= len(t.Dims) {
		panic(fmt.Sprintf("tensor: Unfold(%d) of %d-mode tensor", n, len(t.Dims)))
	}
	rows := t.Dims[n]
	cols := 1
	for k, d := range t.Dims {
		if k != n {
			cols *= d
		}
	}
	out := mat.New(rows, cols)
	idx := make([]int, len(t.Dims))
	// Column strides J_k for k != n.
	colStride := make([]int, len(t.Dims))
	acc := 1
	for k, d := range t.Dims {
		if k == n {
			continue
		}
		colStride[k] = acc
		acc *= d
	}
	for off, v := range t.Data {
		col := 0
		for k, i := range idx {
			if k != n {
				col += i * colStride[k]
			}
		}
		out.Set(idx[n], col, v)
		_ = off
		incIndex(idx, t.Dims)
	}
	return out
}

// Fold is the inverse of Unfold: it rebuilds a dense tensor with the given
// dims from its mode-n unfolding.
func Fold(m *mat.Matrix, n int, dims []int) *Dense {
	t := NewDense(dims...)
	colStride := make([]int, len(dims))
	acc := 1
	for k, d := range dims {
		if k == n {
			continue
		}
		colStride[k] = acc
		acc *= d
	}
	if m.Rows != dims[n] || m.Cols != acc {
		panic(fmt.Sprintf("tensor: Fold: matrix %d×%d does not match dims %v mode %d", m.Rows, m.Cols, dims, n))
	}
	idx := make([]int, len(dims))
	for off := range t.Data {
		col := 0
		for k, i := range idx {
			if k != n {
				col += i * colStride[k]
			}
		}
		t.Data[off] = m.At(idx[n], col)
		incIndex(idx, dims)
	}
	return t
}

// String describes the tensor by shape and nnz.
func (t *Dense) String() string {
	return fmt.Sprintf("Dense%v(nnz=%d)", t.Dims, t.NNZ())
}
