package mat

import (
	"fmt"
	"math"
)

// Cholesky computes the lower-triangular factor L with m = L·Lᵀ.
// m must be square and symmetric positive definite; otherwise ErrSingular
// is returned. Only the lower triangle of m is read.
func Cholesky(m *Matrix) (*Matrix, error) {
	if m.Cols != m.Rows {
		panic(fmt.Sprintf("mat: Cholesky of %d×%d", m.Rows, m.Cols))
	}
	n := m.Rows
	l := New(n, n)
	if err := cholesky(l.Data, m.Data, n); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for k, v := range l.Data[i*n : i*n+i] {
			l.Data[i*n+k] = -v
		}
	}
	return l, nil
}

// cholesky factors the n×n row-major m into l (fully overwritten) on raw
// slices, in the form the substitution sweeps of RightSolveSPDInto take:
// L on the diagonal and −L below it. A negated product rounds the same, so
// the factorization is L's bit for bit. Each entry is one front-to-back
// chain over k; the entries below a pivot go four to a pass, so four
// independent chains share the loads of the pivot's row.
func cholesky(l, m []float64, n int) error {
	clear(l[:n*n])
	for j := 0; j < n; j++ {
		lj := l[j*n : j*n+j]
		d := m[j*n+j]
		for _, v := range lj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("mat: Cholesky pivot %d is %g: %w", j, d, ErrSingular)
		}
		dj := math.Sqrt(d)
		l[j*n+j] = dj
		ndj := -dj
		i := j + 1
		for ; i+4 <= n; i += 4 {
			l0 := l[i*n : i*n+j]
			l1 := l[(i+1)*n : (i+1)*n+j]
			l2 := l[(i+2)*n : (i+2)*n+j]
			l3 := l[(i+3)*n : (i+3)*n+j]
			s0, s1, s2, s3 := m[i*n+j], m[(i+1)*n+j], m[(i+2)*n+j], m[(i+3)*n+j]
			for k, v := range lj {
				s0 -= l0[k] * v
				s1 -= l1[k] * v
				s2 -= l2[k] * v
				s3 -= l3[k] * v
			}
			l[i*n+j], l[(i+1)*n+j], l[(i+2)*n+j], l[(i+3)*n+j] = s0/ndj, s1/ndj, s2/ndj, s3/ndj
		}
		for ; i < n; i++ {
			li := l[i*n : i*n+j]
			s := m[i*n+j]
			for k, v := range lj {
				s -= li[k] * v
			}
			l[i*n+j] = s / ndj
		}
	}
	return nil
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
	l     []float64 // the factor as cholesky leaves it, s.Rows×s.Rows
	bt    Matrix    // Bᵀ staging header, s.Rows×b.Rows
	btBuf []float64 // Bᵀ backing storage, grown on demand
}

func (sc *SPDScratch) ensure(n, rows int) (l []float64, bt *Matrix) {
	if cap(sc.l) < n*n {
		sc.l = make([]float64, n*n)
	}
	if need := n * rows; cap(sc.btBuf) < need {
		sc.btBuf = make([]float64, need)
	}
	sc.bt = Matrix{Rows: n, Cols: rows, Data: sc.btBuf[:n*rows]}
	return sc.l[:n*n], &sc.bt
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
//
// Both triangular sweeps run on the rows of Bᵀ as rank-one updates through
// OuterAdd: row i takes −L[i][k]·row k (forward) or −L[k][i]·row k (back)
// for k in ascending order, one call per run of nonzero coefficients (x +
// (−l)·y is x − l·y bit for bit), and is then scaled by 1/L[i][i]. Every
// element is one front-to-back chain in the order of the textbook
// substitution, exact zeros of L skipped, so the result does not depend on
// the kernel path.
func RightSolveSPDInto(dst, b, s *Matrix, sc *SPDScratch) {
	if b.Cols != s.Rows || s.Cols != s.Rows {
		panic(fmt.Sprintf("mat: RightSolveSPD: B %d×%d, S %d×%d", b.Rows, b.Cols, s.Rows, s.Cols))
	}
	if dst.Rows != b.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: RightSolveSPDInto: dst %d×%d, want %d×%d", dst.Rows, dst.Cols, b.Rows, b.Cols))
	}
	n, rows := s.Rows, b.Rows
	if rows == 0 {
		return
	}
	l, bt := sc.ensure(n, rows)
	if err := cholesky(l, s.Data, n); err != nil {
		MulInto(dst, b, PseudoInverseSym(s, 0))
		return
	}
	// X = B·S⁻¹  ⇔  S·Xᵀ = Bᵀ (S symmetric).
	transposeInto(bt, b)
	x := bt.Data
	// Forward substitution, L·Y = Bᵀ: the coefficients of row i are row i
	// of −L.
	for i := 0; i < n; i++ {
		xi := x[i*rows : (i+1)*rows]
		rankOneRuns(xi, x, l[i*n:], 1, 0, i, rows)
		scaleVec(xi, 1/l[i*n+i])
	}
	// Back substitution, Lᵀ·X = Y: the coefficients of row i are column i
	// of −L, n apart.
	for i := n - 1; i >= 0; i-- {
		xi := x[i*rows : (i+1)*rows]
		rankOneRuns(xi, x, l[i:], n, i+1, n, rows)
		scaleVec(xi, 1/l[i*n+i])
	}
	transposeInto(dst, bt)
}

// rankOneRuns adds c_k·x[k*rows:(k+1)*rows] to dst for k in [lo, hi) in
// ascending order, c_k = coef[k*stride], skipping the k whose c_k is zero:
// one OuterAdd per maximal run of nonzero coefficients.
func rankOneRuns(dst, x, coef []float64, stride, lo, hi, rows int) {
	for k := lo; k < hi; {
		if coef[k*stride] == 0 {
			k++
			continue
		}
		k0 := k
		for k < hi && coef[k*stride] != 0 {
			k++
		}
		outerAdd(dst, x[k0*rows:k*rows], coef[k0*stride:], k-k0, 1, stride, rows)
	}
}

// scaleVec computes x[i] *= a, eight elements to a turn.
func scaleVec(x []float64, a float64) {
	i := 0
	for ; i+8 <= len(x); i += 8 {
		s := x[i : i+8 : i+8]
		s[0] *= a
		s[1] *= a
		s[2] *= a
		s[3] *= a
		s[4] *= a
		s[5] *= a
		s[6] *= a
		s[7] *= a
	}
	for ; i < len(x); i++ {
		x[i] *= a
	}
}

// transposeInto writes mᵀ into dst, which must be m.Cols×m.Rows, four rows
// of m to a pass so each row of dst takes four adjacent stores.
func transposeInto(dst, m *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("mat: transposeInto: dst %d×%d for %d×%d", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	r, c := m.Rows, m.Cols
	i := 0
	for ; i+4 <= r; i += 4 {
		r0 := m.Data[i*c : (i+1)*c]
		r1 := m.Data[(i+1)*c : (i+2)*c][:len(r0)]
		r2 := m.Data[(i+2)*c : (i+3)*c][:len(r0)]
		r3 := m.Data[(i+3)*c : (i+4)*c][:len(r0)]
		p := i
		for j, v := range r0 {
			d := dst.Data[p : p+4 : p+4]
			d[0], d[1], d[2], d[3] = v, r1[j], r2[j], r3[j]
			p += r
		}
	}
	for ; i < r; i++ {
		for j, v := range m.Row(i) {
			dst.Data[j*r+i] = v
		}
	}
}
