package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"twopcp/internal/mat"
)

func TestKhatriRaoKnown(t *testing.T) {
	a := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	b := mat.FromRows([][]float64{{5, 6}, {7, 8}, {9, 10}})
	kr := KhatriRao(a, b)
	if kr.Rows != 6 || kr.Cols != 2 {
		t.Fatalf("shape %d×%d", kr.Rows, kr.Cols)
	}
	// Row (i=1, j=2) = a[1,:] * b[2,:] = (3*9, 4*10); b varies fastest.
	row := kr.Row(1*3 + 2)
	if row[0] != 27 || row[1] != 40 {
		t.Fatalf("row = %v", row)
	}
}

func TestKhatriRaoColMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	KhatriRao(mat.New(2, 2), mat.New(2, 3))
}

func TestKhatriRaoGramIdentity(t *testing.T) {
	// (A ⊙ B)ᵀ(A ⊙ B) = AᵀA ⊛ BᵀB — the classic identity that CP-ALS
	// exploits to avoid forming the Khatri-Rao product.
	rng := rand.New(rand.NewSource(20))
	f := func(ra, rb, c8 uint8) bool {
		ar, br, c := int(ra%6)+1, int(rb%6)+1, int(c8%5)+1
		a, b := mat.Random(ar, c, rng), mat.Random(br, c, rng)
		left := mat.Gram(KhatriRao(a, b))
		right := mat.Hadamard(mat.Gram(a), mat.Gram(b))
		return left.EqualApprox(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKhatriRaoSkipOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	factors := []*mat.Matrix{
		mat.Random(2, 3, rng),
		mat.Random(4, 3, rng),
		mat.Random(5, 3, rng),
	}
	// skip mode 1: chain = A2 ⊙ A0 (mode 0 fastest)
	got := KhatriRaoSkip(factors, 1)
	want := KhatriRao(factors[2], factors[0])
	if !got.EqualApprox(want, 0) {
		t.Fatal("KhatriRaoSkip order wrong")
	}
	// skip mode 2 of a 3-mode: chain = A1 ⊙ A0
	got = KhatriRaoSkip(factors, 2)
	want = KhatriRao(factors[1], factors[0])
	if !got.EqualApprox(want, 0) {
		t.Fatal("KhatriRaoSkip(2) order wrong")
	}
}

func TestMTTKRPMatchesUnfoldTimesKR(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		dims := []int{rng.Intn(4) + 1, rng.Intn(4) + 1, rng.Intn(4) + 1}
		f := rng.Intn(3) + 1
		x := RandomDense(rng, dims...)
		factors := make([]*mat.Matrix, 3)
		for k := range factors {
			factors[k] = mat.Random(dims[k], f, rng)
		}
		for n := 0; n < 3; n++ {
			fast := MTTKRP(x, factors, n)
			slow := mat.Mul(x.Unfold(n), KhatriRaoSkip(factors, n))
			if !fast.EqualApprox(slow, 1e-10) {
				t.Fatalf("trial %d mode %d: MTTKRP != X_(n)·KR", trial, n)
			}
		}
	}
}

func TestMTTKRP4Mode(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dims := []int{2, 3, 2, 2}
	x := RandomDense(rng, dims...)
	factors := make([]*mat.Matrix, 4)
	for k := range factors {
		factors[k] = mat.Random(dims[k], 2, rng)
	}
	for n := 0; n < 4; n++ {
		fast := MTTKRP(x, factors, n)
		slow := mat.Mul(x.Unfold(n), KhatriRaoSkip(factors, n))
		if !fast.EqualApprox(slow, 1e-10) {
			t.Fatalf("mode %d: 4-mode MTTKRP mismatch", n)
		}
	}
}

func TestMTTKRPSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 10; trial++ {
		dims := []int{rng.Intn(5) + 2, rng.Intn(5) + 2, rng.Intn(5) + 2}
		c := RandomCOO(rng, 0.3, dims...)
		d := c.Dense()
		factors := make([]*mat.Matrix, 3)
		for k := range factors {
			factors[k] = mat.Random(dims[k], 3, rng)
		}
		for n := 0; n < 3; n++ {
			sp := MTTKRPSparse(c, factors, n)
			de := MTTKRP(d, factors, n)
			if !sp.EqualApprox(de, 1e-10) {
				t.Fatalf("trial %d mode %d: sparse MTTKRP mismatch", trial, n)
			}
		}
	}
}

func TestMTTKRPChecksShapes(t *testing.T) {
	x := NewDense(2, 2, 2)
	good := []*mat.Matrix{mat.New(2, 3), mat.New(2, 3), mat.New(2, 3)}
	for _, tc := range []struct {
		name    string
		factors []*mat.Matrix
		mode    int
	}{
		{"wrong count", good[:2], 0},
		{"bad mode", good, 3},
		{"bad rows", []*mat.Matrix{mat.New(9, 3), mat.New(2, 3), mat.New(2, 3)}, 1},
		{"bad cols", []*mat.Matrix{mat.New(2, 3), mat.New(2, 4), mat.New(2, 3)}, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			MTTKRP(x, tc.factors, tc.mode)
		}()
	}
}
