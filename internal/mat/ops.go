package mat

import (
	"fmt"
	"sync"

	"twopcp/internal/par"
)

// Panel geometry of the parallel kernels. The reduction kernels (GramInto,
// TMulInto) split the row dimension into fixed-size panels, accumulate one
// partial per panel, and add the partials into dst in ascending panel order.
// The panel size is a constant — never derived from the worker count — so
// the floating-point result is identical at every worker count: a serial
// run walks the very same panels in the very same order. MulInto needs no
// partials (each dst row is owned by exactly one panel), so its output is
// worker-invariant as well.
const reducePanelRows = 256

// panelScratch pools the per-panel partial accumulators of the reduction
// kernels so steady-state ALS sweeps allocate nothing.
var panelScratch = sync.Pool{New: func() any { s := make([]float64, 0, 4096); return &s }}

func getScratch(n int) *[]float64 {
	sp := panelScratch.Get().(*[]float64)
	if cap(*sp) < n {
		*sp = make([]float64, n)
	}
	*sp = (*sp)[:n]
	for i := range *sp {
		(*sp)[i] = 0
	}
	return sp
}

func putScratch(sp *[]float64) { panelScratch.Put(sp) }

// Mul returns a*b. It panics if the inner dimensions differ.
func Mul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes dst = a*b, reusing dst's storage.
// dst must be a.Rows×b.Cols and must not alias a or b.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul: %d×%d * %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulInto: dst %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	mulAdd(dst, a, b)
}

// MulAddInto computes dst += a*b without zeroing dst first.
func MulAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulAddInto: %d×%d * %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAddInto: dst %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	mulAdd(dst, a, b)
}

// mulAdd accumulates a*b into dst, parallel over row panels. Each dst row
// is produced by exactly one panel invocation with a fixed ikj loop order,
// so the result does not depend on the worker count.
func mulAdd(dst, a, b *Matrix) {
	rows := a.Rows
	if rows == 0 || b.Cols == 0 {
		return
	}
	np := (rows + reducePanelRows - 1) / reducePanelRows
	par.DoWorkers(par.WorkersFor(rows*a.Cols*b.Cols*2), np, func(p int) {
		lo := p * reducePanelRows
		hi := lo + reducePanelRows
		if hi > rows {
			hi = rows
		}
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for k, av := range arow {
				Axpy(drow, b.Row(k), av)
			}
		}
	})
}

// Gram returns aᵀa, the F×F Gram matrix of a's columns.
// This is the hot kernel of CP-ALS normal equations.
func Gram(a *Matrix) *Matrix {
	out := New(a.Cols, a.Cols)
	GramInto(out, a)
	return out
}

// GramInto computes dst = aᵀa. dst must be a.Cols×a.Cols. It is TMulInto
// of a with itself, so identical at every worker count, with the upper
// triangle then mirrored: each element of that triangle is the same
// products summed in the same row order as a triangle-only kernel's, and
// OuterAdd computes the whole square faster than Axpy could the
// triangle's ragged rows.
func GramInto(dst, a *Matrix) {
	n := a.Cols
	if dst.Rows != n || dst.Cols != n {
		panic(fmt.Sprintf("mat: GramInto: dst %d×%d, want %d×%d", dst.Rows, dst.Cols, n, n))
	}
	TMulInto(dst, a, a)
	for j := 1; j < n; j++ {
		for k := 0; k < j; k++ {
			dst.Data[j*n+k] = dst.Data[k*n+j]
		}
	}
}

// TMul returns aᵀb. a and b must have the same row count.
func TMul(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	TMulInto(out, a, b)
	return out
}

// TMulInto computes dst = aᵀb, reusing dst's storage.
// dst must be a.Cols×b.Cols. Row panels are reduced in ascending panel
// order, so the result is identical at every worker count.
func TMulInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: TMul: %d×%d ᵀ* %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: TMulInto: dst %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	rows := a.Rows
	ac, bc := a.Cols, b.Cols
	if rows == 0 || ac == 0 || bc == 0 {
		return
	}
	np := (rows + reducePanelRows - 1) / reducePanelRows
	if np == 1 {
		tmulAcc(dst.Data, a, b, 0, rows)
		return
	}
	sp := getScratch(np * ac * bc)
	partials := *sp
	par.DoWorkers(par.WorkersFor(rows*ac*bc), np, func(p int) {
		lo := p * reducePanelRows
		hi := lo + reducePanelRows
		if hi > rows {
			hi = rows
		}
		tmulAcc(partials[p*ac*bc:(p+1)*ac*bc], a, b, lo, hi)
	})
	for p := 0; p < np; p++ {
		Axpy(dst.Data, partials[p*ac*bc:(p+1)*ac*bc], 1)
	}
	putScratch(sp)
}

// tmulAcc accumulates aᵀb over rows [lo, hi) into buf (a.Cols×b.Cols): one
// rank-one update a[i,:] ⊗ b[i,:] per row, in ascending i, as one OuterAdd
// over the run of rows.
func tmulAcc(buf []float64, a, b *Matrix, lo, hi int) {
	OuterAdd(buf, b.Data[lo*b.Cols:hi*b.Cols], a.Data[lo*a.Cols:], a.Cols, a.Cols, b.Cols)
}

// Hadamard returns the element-wise product a ⊛ b. Shapes must match.
func Hadamard(a, b *Matrix) *Matrix {
	out := a.Clone()
	out.HadamardInPlace(b)
	return out
}

// HadamardInPlace computes m = m ⊛ n element-wise. Shapes must match.
func (m *Matrix) HadamardInPlace(n *Matrix) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("mat: Hadamard: %d×%d ⊛ %d×%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	for i, v := range n.Data {
		m.Data[i] *= v
	}
}

// HadamardAll returns the element-wise product of all given matrices, or the
// identity-of-Hadamard (all-ones) matrix of the given shape when the list is
// empty. Used for P_l = ⊛_h U(h)ᵀ_l A(h)_(l_h) style products.
func HadamardAll(r, c int, ms ...*Matrix) *Matrix {
	out := New(r, c)
	out.Fill(1)
	for _, m := range ms {
		out.HadamardInPlace(m)
	}
	return out
}

// Dot returns the Frobenius inner product ⟨a, b⟩ = Σ a_ij b_ij.
func Dot(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Dot: %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var s float64
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// MulVec returns m*x for a vector x of length m.Cols.
func MulVec(m *Matrix, x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec: %d×%d * vec(%d)", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// QuadForm returns xᵀ m y for vectors x (len m.Rows) and y (len m.Cols).
// CP fit computation uses this with x = y = λ on the Hadamard of Grams.
func QuadForm(m *Matrix, x, y []float64) float64 {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("mat: QuadForm: %d×%d with vec(%d), vec(%d)", m.Rows, m.Cols, len(x), len(y)))
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var ri float64
		for j, v := range row {
			ri += v * y[j]
		}
		s += x[i] * ri
	}
	return s
}
