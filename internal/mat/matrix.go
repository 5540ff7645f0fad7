// Package mat provides the dense matrix algebra substrate used throughout
// twopcp: a row-major float64 matrix type, the BLAS-like kernels CP-ALS
// needs (GEMM, Gram matrices, Hadamard products), small symmetric
// positive-definite solvers (Cholesky with a Gauss-Jordan pseudo-inverse
// fallback), and the one on-disk encoding of float64 values (floats.go).
//
// Everything is hand-rolled on the standard library; the package has no
// other dependencies. Matrices in this package are
// small-to-medium (factor matrices are (I/K)×F with F typically 10–100), so
// the kernels favour clarity and cache-friendly loop orders over blocking.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Data is stored in a single slice
// with element (i, j) at Data[i*Cols+j]; the slice is exposed so callers
// that need raw access (serialization, tensor kernels) can avoid copies.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// ErrDimension is returned (wrapped) by operations whose operands have
// incompatible shapes.
var ErrDimension = errors.New("mat: dimension mismatch")

// ErrSingular is returned by solvers when the system matrix is singular to
// working precision and no pseudo-inverse fallback was requested.
var ErrSingular = errors.New("mat: singular matrix")

// New returns a zero-initialized r×c matrix.
// It panics if r or c is negative.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: New(%d, %d): negative dimension", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data as an r×c matrix without copying.
// It panics unless len(data) == r*c.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice(%d, %d): need %d values, got %d", r, c, r*c, len(data)))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// FromRows builds a matrix from row slices, copying the data.
// All rows must have equal length; an empty input yields a 0×0 matrix.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: FromRows: row %d has length %d, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a subslice (no copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m. The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom: %d×%d into %d×%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and n have the same shape and identical elements.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != n.Data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether m and n have the same shape and all elements
// within tol of each other.
func (m *Matrix) EqualApprox(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Norm returns the Frobenius norm of m.
func (m *Matrix) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// matrix.
func (m *Matrix) MaxAbs() float64 {
	var best float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddInPlace adds n to m element-wise in place. Shapes must match.
func (m *Matrix) AddInPlace(n *Matrix) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("mat: AddInPlace: %d×%d + %d×%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	for i, v := range n.Data {
		m.Data[i] += v
	}
}

// SubInPlace subtracts n from m element-wise in place. Shapes must match.
func (m *Matrix) SubInPlace(n *Matrix) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("mat: SubInPlace: %d×%d - %d×%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	for i, v := range n.Data {
		m.Data[i] -= v
	}
}

// ColumnNorms returns the Euclidean norm of each column of m.
func (m *Matrix) ColumnNorms() []float64 {
	norms := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			norms[j] += v * v
		}
	}
	for j := range norms {
		norms[j] = math.Sqrt(norms[j])
	}
	return norms
}

// NormalizeColumns scales every column of m to unit Euclidean norm and
// returns the original norms. Columns with norm below eps are left
// untouched and report norm 1 so that callers folding the norms into λ
// weights stay consistent.
func (m *Matrix) NormalizeColumns(eps float64) []float64 {
	norms := make([]float64, m.Cols)
	m.NormalizeColumnsTo(norms, make([]float64, m.Cols), eps)
	return norms
}

// NormalizeColumnsTo is NormalizeColumns writing the norms into the
// caller-provided norms slice, using inv as scratch (both len Cols). Hot
// loops use it to keep ALS sweeps allocation-free.
func (m *Matrix) NormalizeColumnsTo(norms, inv []float64, eps float64) {
	if len(norms) != m.Cols || len(inv) != m.Cols {
		panic(fmt.Sprintf("mat: NormalizeColumnsTo: %d norms, %d inv for %d columns", len(norms), len(inv), m.Cols))
	}
	for j := range norms {
		norms[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			norms[j] += v * v
		}
	}
	for j, n2 := range norms {
		n := math.Sqrt(n2)
		norms[j] = n
		if n < eps {
			norms[j] = 1
			inv[j] = 1
		} else {
			inv[j] = 1 / n
		}
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= inv[j]
		}
	}
}

// ScaleColumns multiplies column j of m by s[j] in place.
// It panics unless len(s) == m.Cols.
func (m *Matrix) ScaleColumns(s []float64) {
	if len(s) != m.Cols {
		panic(fmt.Sprintf("mat: ScaleColumns: %d scales for %d columns", len(s), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s[j]
		}
	}
}

// String renders m for debugging: small matrices fully, large ones by shape.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%d×%d)", m.Rows, m.Cols)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%d×%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}

// VStack stacks the given matrices vertically (they must share a column
// count) and returns the result. Used to assemble full factors A(i) from
// their per-partition pieces A(i)_(ki).
func VStack(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic(fmt.Sprintf("mat: VStack: column mismatch %d vs %d", m.Cols, cols))
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:off+len(m.Data)], m.Data)
		off += len(m.Data)
	}
	return out
}

// SliceRows returns the sub-matrix of rows [from, to) as a copy.
func (m *Matrix) SliceRows(from, to int) *Matrix {
	if from < 0 || to > m.Rows || from > to {
		panic(fmt.Sprintf("mat: SliceRows(%d, %d) of %d rows", from, to, m.Rows))
	}
	out := New(to-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:to*m.Cols])
	return out
}
