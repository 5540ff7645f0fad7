package mat

import (
	"errors"
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
