package mat

import (
	"fmt"
	"math"
)

// Cholesky computes the lower-triangular factor L with m = L·Lᵀ.
// m must be square and symmetric positive definite; otherwise ErrSingular
// is returned. Only the lower triangle of m is read.
func Cholesky(m *Matrix) (*Matrix, error) {
	l := New(m.Rows, m.Rows)
	if err := choleskyInto(l, m); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto factors m into the caller-provided l (n×n, fully
// overwritten), sparing the allocation in workspace-driven solves.
func choleskyInto(l, m *Matrix) error {
	n := m.Rows
	if m.Cols != n {
		panic(fmt.Sprintf("mat: Cholesky of %d×%d", m.Rows, m.Cols))
	}
	l.Zero()
	for j := 0; j < n; j++ {
		d := m.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("mat: Cholesky pivot %d is %g: %w", j, d, ErrSingular)
		}
		dj := math.Sqrt(d)
		l.Set(j, j, dj)
		for i := j + 1; i < n; i++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/dj)
		}
	}
	return nil
}

// choleskySolveInPlace overwrites x (n×k) with the solution of L·Lᵀ·X = x.
func choleskySolveInPlace(l, x *Matrix) {
	n := l.Rows
	if x.Rows != n {
		panic(fmt.Sprintf("mat: Cholesky solve: L is %d×%d, B is %d×%d", l.Rows, l.Cols, x.Rows, x.Cols))
	}
	// Forward substitution: L·Y = B.
	for i := 0; i < n; i++ {
		xi := x.Row(i)
		for k := 0; k < i; k++ {
			lik := l.At(i, k)
			if lik == 0 {
				continue
			}
			xk := x.Row(k)
			for j := range xi {
				xi[j] -= lik * xk[j]
			}
		}
		inv := 1 / l.At(i, i)
		for j := range xi {
			xi[j] *= inv
		}
	}
	// Back substitution: Lᵀ·X = Y.
	for i := n - 1; i >= 0; i-- {
		xi := x.Row(i)
		for k := i + 1; k < n; k++ {
			lki := l.At(k, i)
			if lki == 0 {
				continue
			}
			xk := x.Row(k)
			for j := range xi {
				xi[j] -= lki * xk[j]
			}
		}
		inv := 1 / l.At(i, i)
		for j := range xi {
			xi[j] *= inv
		}
	}
}

// SymEig computes the eigendecomposition of a symmetric matrix m using the
// cyclic Jacobi rotation method: m = V·diag(vals)·Vᵀ with orthonormal V.
// It is intended for the small F×F systems of CP-ALS; cost is O(n³) per
// sweep with a handful of sweeps.
func SymEig(m *Matrix) (vals []float64, vecs *Matrix) {
	n := m.Rows
	if m.Cols != n {
		panic(fmt.Sprintf("mat: SymEig of %d×%d", m.Rows, m.Cols))
	}
	a := m.Clone()
	v := Identity(n)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a.At(i, j) * a.At(i, j)
			}
		}
		if off < 1e-28*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Rotate rows/cols p and q of a.
				for k := 0; k < n; k++ {
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a.At(i, i)
	}
	return vals, v
}

// PseudoInverseSym returns the Moore-Penrose pseudo-inverse of a symmetric
// matrix via its Jacobi eigendecomposition, zeroing eigenvalues whose
// magnitude is below tol·max|λ|. tol <= 0 selects a default of n·ε.
func PseudoInverseSym(m *Matrix, tol float64) *Matrix {
	n := m.Rows
	vals, v := SymEig(m)
	maxAbs := 0.0
	for _, x := range vals {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if tol <= 0 {
		tol = float64(n) * 2.220446049250313e-16
	}
	cut := tol * maxAbs
	// pinv = V diag(1/λ or 0) Vᵀ
	scaled := New(n, n) // scaled = V · diag(inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(vals[j]) > cut {
				scaled.Set(i, j, v.At(i, j)/vals[j])
			}
		}
	}
	out := New(n, n)
	// out = scaled · Vᵀ
	for i := 0; i < n; i++ {
		srow := scaled.Row(i)
		orow := out.Row(i)
		for k, sv := range srow {
			if sv == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				orow[j] += sv * v.At(j, k)
			}
		}
	}
	return out
}

// Inverse returns the inverse of a general square matrix using Gauss-Jordan
// elimination with partial pivoting. ErrSingular is returned when a pivot
// underflows working precision.
func Inverse(m *Matrix) (*Matrix, error) {
	n := m.Rows
	if m.Cols != n {
		panic(fmt.Sprintf("mat: Inverse of %d×%d", m.Rows, m.Cols))
	}
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, best := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-300 {
			return nil, fmt.Errorf("mat: Inverse pivot %d: %w", col, ErrSingular)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := a.At(col, col)
		scaleRow(a, col, 1/p)
		scaleRow(inv, col, 1/p)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			axpyRow(a, r, col, -f)
			axpyRow(inv, r, col, -f)
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func scaleRow(m *Matrix, i int, s float64) {
	ri := m.Row(i)
	for k := range ri {
		ri[k] *= s
	}
}

// axpyRow adds f times row j to row i.
func axpyRow(m *Matrix, i, j int, f float64) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k] += f * rj[k]
	}
}

// SPDScratch holds the reusable buffers of RightSolveSPDInto. The zero
// value is ready to use; buffers grow on demand and are reused across
// solves of any shape — the Bᵀ staging keeps one backing array and only
// reshapes its header, so cycling through modes of different row counts
// (non-cubic blocks) allocates nothing once warm.
type SPDScratch struct {
	l     *Matrix   // Cholesky factor, s.Rows×s.Rows
	bt    Matrix    // Bᵀ staging header, s.Rows×b.Rows
	btBuf []float64 // Bᵀ backing storage, grown on demand
}

func (sc *SPDScratch) ensure(n, rows int) (l, bt *Matrix) {
	if sc.l == nil || sc.l.Rows != n {
		sc.l = New(n, n)
	}
	if need := n * rows; cap(sc.btBuf) < need {
		sc.btBuf = make([]float64, need)
	}
	sc.bt = Matrix{Rows: n, Cols: rows, Data: sc.btBuf[:n*rows]}
	return sc.l, &sc.bt
}

// RightSolveSPD returns B·S⁻¹ for a symmetric (ideally positive definite)
// S, as required by the factor update A ← T·S⁻¹. The fast path is a
// Cholesky solve of S·Xᵀ = Bᵀ; if S is not positive definite to working
// precision the symmetric pseudo-inverse is used instead, which matches the
// behaviour of the reference CP-ALS implementations on rank-deficient
// Gram products.
func RightSolveSPD(b, s *Matrix) *Matrix {
	out := New(b.Rows, b.Cols)
	RightSolveSPDInto(out, b, s, &SPDScratch{})
	return out
}

// RightSolveSPDInto computes dst = B·S⁻¹ without allocating on the
// Cholesky fast path: the factorization and the transposed right-hand side
// live in sc. dst must be b.Rows×b.Cols and must not alias b or s; the
// result is bit-identical to RightSolveSPD. The rare non-SPD fallback
// still allocates (it eigendecomposes S).
func RightSolveSPDInto(dst, b, s *Matrix, sc *SPDScratch) {
	if b.Cols != s.Rows {
		panic(fmt.Sprintf("mat: RightSolveSPD: B %d×%d, S %d×%d", b.Rows, b.Cols, s.Rows, s.Cols))
	}
	if dst.Rows != b.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: RightSolveSPDInto: dst %d×%d, want %d×%d", dst.Rows, dst.Cols, b.Rows, b.Cols))
	}
	l, bt := sc.ensure(s.Rows, b.Rows)
	if err := choleskyInto(l, s); err == nil {
		// X = B·S⁻¹  ⇔  S·Xᵀ = Bᵀ (S symmetric).
		transposeInto(bt, b)
		choleskySolveInPlace(l, bt)
		transposeInto(dst, bt)
		return
	}
	MulInto(dst, b, PseudoInverseSym(s, 0))
}

// transposeInto writes mᵀ into dst (m.Cols×m.Rows).
func transposeInto(dst, m *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("mat: transposeInto: dst %d×%d for %d×%d", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.Data[j*m.Rows+i] = v
		}
	}
}
