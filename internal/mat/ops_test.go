package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMul is an independent reference implementation used to cross-check
// the optimized kernels.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Random(7, 7, rng)
	if !Mul(m, Identity(7)).EqualApprox(m, 1e-14) {
		t.Fatal("m·I != m")
	}
	if !Mul(Identity(7), m).EqualApprox(m, 1e-14) {
		t.Fatal("I·m != m")
	}
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(r8, k8, c8 uint8) bool {
		r, k, c := int(r8%9)+1, int(k8%9)+1, int(c8%9)+1
		a, b := Random(r, k, rng), Random(k, c, rng)
		return Mul(a, b).EqualApprox(naiveMul(a, b), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with bad dims did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulAddInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := Random(4, 5, rng), Random(5, 6, rng)
	dst := Random(4, 6, rng)
	orig := dst.Clone()
	MulAddInto(dst, a, b)
	want := Mul(a, b)
	want.AddInPlace(orig)
	if !dst.EqualApprox(want, 1e-12) {
		t.Fatal("MulAddInto mismatch")
	}
}

func TestGramMatchesTMul(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(r8, c8 uint8) bool {
		r, c := int(r8%15)+1, int(c8%10)+1
		a := Random(r, c, rng)
		return Gram(a).EqualApprox(TMul(a, a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGramSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Gram(Random(9, 5, rng))
	if !g.EqualApprox(g.T(), 1e-13) {
		t.Fatal("Gram not symmetric")
	}
}

func TestTMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := Random(6, 4, rng), Random(6, 3, rng)
	if !TMul(a, b).EqualApprox(naiveMul(a.T(), b), 1e-12) {
		t.Fatal("TMul mismatch")
	}
}

// TestTMulIntoBitsMatchScalarDefinition pins TMulInto's arithmetic, not
// just its value: dst[j,c] is the front-to-back sum over the rows of one
// 256-row panel of a[i,j]·b[i,c], and panels are added in ascending order
// into a zeroed dst. Phase 2 computes every P component through it, so a
// kernel that reassociates the sum would move every golden.
func TestTMulIntoBitsMatchScalarDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, rows := range []int{1, 7, 255, 256, 257, 600} {
		for _, shape := range [][2]int{{1, 1}, {3, 3}, {16, 4}, {52, 13}, {64, 16}} {
			ac, bc := shape[0], shape[1]
			a, b := RandomNormal(rows, ac, rng), RandomNormal(rows, bc, rng)
			want := make([]float64, ac*bc)
			for lo := 0; lo < rows; lo += reducePanelRows {
				panel := make([]float64, ac*bc)
				for i := lo; i < min(lo+reducePanelRows, rows); i++ {
					for j := 0; j < ac; j++ {
						for c := 0; c < bc; c++ {
							panel[j*bc+c] += a.At(i, j) * b.At(i, c)
						}
					}
				}
				if rows <= reducePanelRows {
					want = panel
				} else {
					axpyGeneric(want, panel, 1)
				}
			}
			got := TMul(a, b)
			for i, g := range got.Data {
				if math.Float64bits(g) != math.Float64bits(want[i]) {
					t.Fatalf("%d rows, %d×%d: [%d] = %x, scalar definition %x", rows, ac, bc, i, math.Float64bits(g), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestGramIntoBitsMatchScalarDefinition pins GramInto to the arithmetic it
// had as an upper-triangle kernel: per 256-row panel, from zero and in
// ascending row order, one Axpy per row and column j of a[i,j]·a[i,j:] into
// row j of the triangle; panels added in ascending order into a zeroed dst;
// the triangle mirrored. Every Phase-1 and Phase-2 solve reads a Gram, so a
// kernel that changed any of that would move every golden.
func TestGramIntoBitsMatchScalarDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, rows := range []int{1, 3, 4, 5, 255, 256, 257, 600} {
		for _, n := range []int{1, 3, 4, 5, 8, 13, 16, 17, 32} {
			a := RandomNormal(rows, n, rng)
			want := make([]float64, n*n)
			for lo := 0; lo < rows; lo += reducePanelRows {
				panel := make([]float64, n*n)
				for i := lo; i < min(lo+reducePanelRows, rows); i++ {
					row := a.Row(i)
					for j, v := range row {
						axpyGeneric(panel[j*n+j:(j+1)*n], row[j:], v)
					}
				}
				if rows <= reducePanelRows {
					want = panel
				} else {
					axpyGeneric(want, panel, 1)
				}
			}
			for j := 1; j < n; j++ {
				for k := 0; k < j; k++ {
					want[j*n+k] = want[k*n+j]
				}
			}
			got := Gram(a)
			for i, g := range got.Data {
				if math.Float64bits(g) != math.Float64bits(want[i]) {
					t.Fatalf("%d rows, %d columns: [%d,%d] = %x, scalar definition %x", rows, n, i/n, i%n, math.Float64bits(g), math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestHadamard(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{2, 2}, {0.5, -1}})
	got := Hadamard(a, b)
	want := FromRows([][]float64{{2, 4}, {1.5, -4}})
	if !got.Equal(want) {
		t.Fatalf("Hadamard = %v", got)
	}
	// a unchanged
	if a.At(0, 0) != 1 {
		t.Fatal("Hadamard mutated its argument")
	}
}

func TestHadamardAll(t *testing.T) {
	a := FromRows([][]float64{{2, 3}})
	b := FromRows([][]float64{{5, 7}})
	got := HadamardAll(1, 2, a, b)
	want := FromRows([][]float64{{10, 21}})
	if !got.Equal(want) {
		t.Fatalf("HadamardAll = %v", got)
	}
	ones := HadamardAll(2, 2)
	for _, v := range ones.Data {
		if v != 1 {
			t.Fatal("empty HadamardAll should be all-ones")
		}
	}
}

func TestDot(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got := Dot(a, b); got != 5+12+21+32 {
		t.Fatalf("Dot = %g", got)
	}
}

func TestDotNormConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := Random(5, 5, rng)
	if math.Abs(Dot(m, m)-m.Norm()*m.Norm()) > 1e-10 {
		t.Fatal("Dot(m,m) != Norm(m)²")
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := MulVec(m, []float64{10, 100})
	if got[0] != 210 || got[1] != 430 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestQuadForm(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	x := []float64{1, 1}
	// xᵀ m x = 1+2+3+4
	if got := QuadForm(m, x, x); got != 10 {
		t.Fatalf("QuadForm = %g", got)
	}
	// cross-check against MulVec
	rng := rand.New(rand.NewSource(11))
	a := Random(4, 4, rng)
	v := []float64{0.1, 0.2, 0.3, 0.4}
	mv := MulVec(a, v)
	var want float64
	for i, vi := range v {
		want += vi * mv[i]
	}
	if math.Abs(QuadForm(a, v, v)-want) > 1e-12 {
		t.Fatal("QuadForm inconsistent with MulVec")
	}
}

func TestMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, b, c := Random(3, 4, rng), Random(4, 5, rng), Random(5, 2, rng)
	left := Mul(Mul(a, b), c)
	right := Mul(a, Mul(b, c))
	if !left.EqualApprox(right, 1e-11) {
		t.Fatal("(ab)c != a(bc)")
	}
}
