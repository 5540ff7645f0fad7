package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random symmetric positive-definite n×n matrix
// as AᵀA + I.
func randomSPD(n int, rng *rand.Rand) *Matrix {
	a := Random(n+2, n, rng)
	s := Gram(a)
	for i := 0; i < n; i++ {
		s.Set(i, i, s.At(i, i)+1)
	}
	return s
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := func(n8 uint8) bool {
		n := int(n8%8) + 1
		s := randomSPD(n, rng)
		l, err := Cholesky(s)
		if err != nil {
			return false
		}
		return Mul(l, l.T()).EqualApprox(s, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	s := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(s); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSymEigOrthonormalAndReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(7) + 1
		a := RandomNormal(n, n, rng)
		s := Gram(a) // symmetric PSD
		vals, v := SymEig(s)
		// V orthonormal: VᵀV = I
		if !Gram(v).EqualApprox(Identity(n), 1e-9) {
			t.Fatalf("trial %d: V not orthonormal", trial)
		}
		// V diag(vals) Vᵀ = s
		vd := v.Clone()
		vd.ScaleColumns(vals)
		if !Mul(vd, v.T()).EqualApprox(s, 1e-8) {
			t.Fatalf("trial %d: eigendecomposition does not reconstruct", trial)
		}
	}
}

func TestSymEigDiagonal(t *testing.T) {
	s := FromRows([][]float64{{4, 0}, {0, 9}})
	vals, _ := SymEig(s)
	got := map[float64]bool{}
	for _, v := range vals {
		got[math.Round(v)] = true
	}
	if !got[4] || !got[9] {
		t.Fatalf("vals = %v", vals)
	}
}

func TestPseudoInverseSymSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := randomSPD(5, rng)
	p := PseudoInverseSym(s, 0)
	if !Mul(s, p).EqualApprox(Identity(5), 1e-8) {
		t.Fatal("pinv of SPD is not the inverse")
	}
}

func TestPseudoInverseSymSingular(t *testing.T) {
	// rank-1 symmetric matrix s = v vᵀ with v = (1,2)
	s := FromRows([][]float64{{1, 2}, {2, 4}})
	p := PseudoInverseSym(s, 0)
	// Moore-Penrose conditions: s p s = s and p s p = p
	if !Mul(Mul(s, p), s).EqualApprox(s, 1e-9) {
		t.Fatal("s·p·s != s")
	}
	if !Mul(Mul(p, s), p).EqualApprox(p, 1e-9) {
		t.Fatal("p·s·p != p")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(6) + 1
		m := RandomNormal(n, n, rng)
		// Make it well-conditioned: add n·I
		for i := 0; i < n; i++ {
			m.Set(i, i, m.At(i, i)+float64(n)+1)
		}
		inv, err := Inverse(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !Mul(m, inv).EqualApprox(Identity(n), 1e-9) {
			t.Fatalf("trial %d: m·m⁻¹ != I", trial)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	s := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Inverse(s); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestInverseNeedsPivoting(t *testing.T) {
	// Zero on the initial pivot position forces a row swap.
	m := FromRows([][]float64{{0, 1}, {1, 0}})
	inv, err := Inverse(m)
	if err != nil {
		t.Fatal(err)
	}
	if !Mul(m, inv).EqualApprox(Identity(2), 1e-12) {
		t.Fatal("pivoted inverse wrong")
	}
}

func TestRightSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s := randomSPD(4, rng)
	x := Random(6, 4, rng)
	b := Mul(x, s)
	got := RightSolveSPD(b, s)
	if !got.EqualApprox(x, 1e-8) {
		t.Fatal("RightSolveSPD did not recover x")
	}
}

func TestRightSolveSPDFallsBackOnSingular(t *testing.T) {
	// Singular S exercises the pseudo-inverse path; the result must still
	// satisfy the normal-equation optimality B = X·S on the range of S.
	s := FromRows([][]float64{{1, 1}, {1, 1}})
	b := FromRows([][]float64{{2, 2}})
	x := RightSolveSPD(b, s)
	back := Mul(x, s)
	if !back.EqualApprox(b, 1e-9) {
		t.Fatalf("X·S = %v, want %v", back, b)
	}
}

func TestRightSolveSPDMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	f := func(n8, r8 uint8) bool {
		n, r := int(n8%6)+1, int(r8%6)+1
		s := randomSPD(n, rng)
		b := Random(r, n, rng)
		inv, err := Inverse(s)
		if err != nil {
			return false
		}
		return RightSolveSPD(b, s).EqualApprox(Mul(b, inv), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// choleskyInto is the scalar factorization RightSolveSPDInto's fast path
// must reproduce bit for bit: l (n×n, fully overwritten) with m = L·Lᵀ,
// through At and Set.
func choleskyInto(l, m *Matrix) error {
	n := m.Rows
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

// choleskySolveInPlace is the scalar substitution of the oracle: it
// overwrites x (n×k) with the solution of L·Lᵀ·X = x, row by row, skipping
// exact zeros of L.
func choleskySolveInPlace(l, x *Matrix) {
	n := l.Rows
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

// scalarRightSolveSPD is the oracle of RightSolveSPDInto: the scalar
// Cholesky solve of S·Xᵀ = Bᵀ, or B times the pseudo-inverse when S does
// not factor.
func scalarRightSolveSPD(b, s *Matrix) *Matrix {
	l := New(s.Rows, s.Rows)
	if err := choleskyInto(l, s); err != nil {
		return Mul(b, PseudoInverseSym(s, 0))
	}
	bt := b.T()
	choleskySolveInPlace(l, bt)
	return bt.T()
}

// spdCase builds an F×F system of the given kind and a rows×F right-hand
// side: 0 the Gram of random factors plus the identity, 1 a diagonal S, 2 a
// block-diagonal S (exact zeros in L between the blocks), 3 a rank-one S
// with a zero row and column, which fails the factorization at that pivot
// at the latest and takes the pseudo-inverse fallback.
func spdCase(rng *rand.Rand, kind, rows, f int) (b, s *Matrix) {
	b = RandomNormal(rows, f, rng)
	switch kind {
	case 0:
		s = randomSPD(f, rng)
	case 1:
		s = New(f, f)
		for i := 0; i < f; i++ {
			s.Set(i, i, 0.5+rng.Float64())
		}
	case 2:
		s = New(f, f)
		for lo := 0; lo < f; {
			hi := min(f, lo+1+rng.Intn(4))
			blk := randomSPD(hi-lo, rng)
			for i := lo; i < hi; i++ {
				for j := lo; j < hi; j++ {
					s.Set(i, j, blk.At(i-lo, j-lo))
				}
			}
			lo = hi
		}
	default:
		v := RandomNormal(1, f, rng)
		v.Data[rng.Intn(f)] = 0
		s = Gram(v)
	}
	return b, s
}

func checkSolveMatchesScalar(t *testing.T, rng *rand.Rand, kind, rows, f int, sc *SPDScratch) {
	t.Helper()
	b, s := spdCase(rng, kind, rows, f)
	if _, err := Cholesky(s); (err != nil) != (kind == 3) {
		t.Fatalf("kind %d, F=%d: Cholesky err = %v", kind, f, err)
	}
	want := scalarRightSolveSPD(b, s)
	got := New(rows, f)
	RightSolveSPDInto(got, b, s, sc)
	if i, ok := sameBits(got.Data, want.Data); !ok {
		t.Fatalf("element %d: kind %d, %d×%d: RightSolveSPDInto differs from the scalar solve", i, kind, rows, f)
	}
}

// TestRightSolveSPDMatchesScalar holds the fast path to the scalar oracle
// bit for bit at every rows in 1..70 and F in 1..20, one scratch shared
// across all shapes.
func TestRightSolveSPDMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var sc SPDScratch
	for rows := 1; rows <= 70; rows++ {
		for f := 1; f <= 20; f++ {
			checkSolveMatchesScalar(t, rng, (rows+f)%4, rows, f, &sc)
		}
	}
}

func TestCholeskyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for f := 1; f <= 20; f++ {
		_, s := spdCase(rng, f%3, 1, f)
		want := New(f, f)
		if err := choleskyInto(want, s); err != nil {
			t.Fatal(err)
		}
		got, err := Cholesky(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sameBits(got.Data, want.Data); !ok {
			t.Fatalf("F=%d: Cholesky differs from the scalar factorization", f)
		}
	}
}

func FuzzRightSolveSPDMatchesScalar(f *testing.F) {
	f.Add(uint8(32), uint8(16), uint8(0), int64(1))
	f.Add(uint8(64), uint8(8), uint8(1), int64(2))
	f.Add(uint8(7), uint8(13), uint8(2), int64(3))
	f.Add(uint8(3), uint8(5), uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, rows, cols, kind uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var sc SPDScratch
		checkSolveMatchesScalar(t, rng, int(kind%4), int(rows%70)+1, int(cols%20)+1, &sc)
	})
}

// TestRightSolveSPDWarmAllocatesNothing pins the fast path's zero
// allocations once the scratch has grown to the shape.
func TestRightSolveSPDWarmAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sh := range []struct{ rows, f int }{{32, 16}, {64, 8}, {5, 3}} {
		b, s := spdCase(rng, 0, sh.rows, sh.f)
		dst := New(sh.rows, sh.f)
		var sc SPDScratch
		RightSolveSPDInto(dst, b, s, &sc)
		if n := testing.AllocsPerRun(20, func() { RightSolveSPDInto(dst, b, s, &sc) }); n != 0 {
			t.Errorf("%d×%d: %v allocations per warm solve, want 0", sh.rows, sh.f, n)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(3, 3, rand.New(rand.NewSource(42)))
	b := Random(3, 3, rand.New(rand.NewSource(42)))
	if !a.Equal(b) {
		t.Fatal("Random with equal seeds differs")
	}
	for _, v := range a.Data {
		if v < 0 || v >= 1 {
			t.Fatalf("Random value %g outside [0,1)", v)
		}
	}
}
