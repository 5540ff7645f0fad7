package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseShape(t *testing.T) {
	d := NewDense(2, 3, 4)
	if d.NModes() != 3 || d.Len() != 24 {
		t.Fatalf("NModes=%d Len=%d", d.NModes(), d.Len())
	}
	for _, v := range d.Data {
		if v != 0 {
			t.Fatal("not zero-initialized")
		}
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDense(2, -1)
}

func TestStridesFortranOrder(t *testing.T) {
	d := NewDense(2, 3, 4)
	s := d.Strides()
	if s[0] != 1 || s[1] != 2 || s[2] != 6 {
		t.Fatalf("Strides = %v", s)
	}
}

func TestOffsetAtSet(t *testing.T) {
	d := NewDense(2, 3, 4)
	d.Set(7.5, 1, 2, 3)
	if d.At(1, 2, 3) != 7.5 {
		t.Fatal("At/Set mismatch")
	}
	// Fortran order: offset = 1 + 2*2 + 3*6 = 23
	if d.Data[23] != 7.5 {
		t.Fatalf("offset layout wrong: %v", d.Data)
	}
}

func TestOffsetOutOfRangePanics(t *testing.T) {
	d := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.At(2, 0)
}

func TestFillVisitsAllIndexes(t *testing.T) {
	d := NewDense(3, 2, 2)
	seen := map[[3]int]bool{}
	d.Fill(func(idx []int) float64 {
		seen[[3]int{idx[0], idx[1], idx[2]}] = true
		return float64(idx[0] + 10*idx[1] + 100*idx[2])
	})
	if len(seen) != 12 {
		t.Fatalf("Fill visited %d indexes, want 12", len(seen))
	}
	if d.At(2, 1, 1) != 112 {
		t.Fatalf("At(2,1,1) = %g", d.At(2, 1, 1))
	}
}

func TestNormDotScale(t *testing.T) {
	d := NewDense(2, 2)
	d.Data = []float64{3, 4, 0, 0}
	if math.Abs(d.Norm()-5) > 1e-12 {
		t.Fatalf("Norm = %g", d.Norm())
	}
	e := d.Clone()
	if math.Abs(d.Dot(e)-25) > 1e-12 {
		t.Fatalf("Dot = %g", d.Dot(e))
	}
	d.Scale(2)
	if d.Data[0] != 6 {
		t.Fatal("Scale failed")
	}
	e.AddInPlace(d)
	if e.Data[0] != 9 {
		t.Fatal("AddInPlace failed")
	}
	e.SubInPlace(d)
	if e.Data[0] != 3 {
		t.Fatal("SubInPlace failed")
	}
}

func TestNNZ(t *testing.T) {
	d := NewDense(2, 2)
	d.Set(1, 0, 0)
	d.Set(-2, 1, 1)
	if d.NNZ() != 2 {
		t.Fatalf("NNZ = %d", d.NNZ())
	}
}

func TestCloneIndependence(t *testing.T) {
	d := RandomDense(rand.New(rand.NewSource(1)), 2, 3)
	c := d.Clone()
	c.Data[0] = 42
	if d.Data[0] == 42 {
		t.Fatal("Clone aliases data")
	}
}

func TestSubTensorAndSet(t *testing.T) {
	d := NewDense(4, 4)
	d.Fill(func(idx []int) float64 { return float64(idx[0]*10 + idx[1]) })
	b := d.SubTensor([]int{1, 2}, []int{2, 2})
	if b.At(0, 0) != 12 || b.At(1, 1) != 23 {
		t.Fatalf("SubTensor values: %v", b.Data)
	}
	// Round-trip: writing the block back is a no-op.
	e := d.Clone()
	e.SetSubTensor(b, []int{1, 2})
	if !e.EqualApprox(d, 0) {
		t.Fatal("SetSubTensor round-trip failed")
	}
	// Writing elsewhere moves the data.
	e.SetSubTensor(b, []int{0, 0})
	if e.At(0, 0) != 12 {
		t.Fatalf("moved block: %g", e.At(0, 0))
	}
}

func TestSubTensorBoundsPanics(t *testing.T) {
	d := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.SubTensor([]int{1, 1}, []int{2, 1})
}

func TestSubTensorPartitionReassembly(t *testing.T) {
	// Partitioning a tensor into a 2×2×2 grid of blocks and reassembling
	// must reproduce the original exactly.
	rng := rand.New(rand.NewSource(2))
	d := RandomDense(rng, 4, 6, 2)
	rebuilt := NewDense(4, 6, 2)
	sizes := []int{2, 3, 1}
	for k0 := 0; k0 < 2; k0++ {
		for k1 := 0; k1 < 2; k1++ {
			for k2 := 0; k2 < 2; k2++ {
				from := []int{k0 * 2, k1 * 3, k2 * 1}
				blk := d.SubTensor(from, sizes)
				rebuilt.SetSubTensor(blk, from)
			}
		}
	}
	if !rebuilt.EqualApprox(d, 0) {
		t.Fatal("block partition reassembly failed")
	}
}

func TestUnfoldKnownValues(t *testing.T) {
	// X ∈ R^{2×2×2} with X(i,j,k) = i + 2j + 4k (its own offset).
	d := NewDense(2, 2, 2)
	d.Fill(func(idx []int) float64 { return float64(idx[0] + 2*idx[1] + 4*idx[2]) })
	m0 := d.Unfold(0)
	// Mode-0 unfolding: rows = i, cols over (j,k) with j fastest.
	want0 := [][]float64{{0, 2, 4, 6}, {1, 3, 5, 7}}
	for i := range want0 {
		for j := range want0[i] {
			if m0.At(i, j) != want0[i][j] {
				t.Fatalf("Unfold(0)[%d,%d] = %g, want %g", i, j, m0.At(i, j), want0[i][j])
			}
		}
	}
	m1 := d.Unfold(1)
	// rows = j, cols over (i,k) with i fastest.
	want1 := [][]float64{{0, 1, 4, 5}, {2, 3, 6, 7}}
	for i := range want1 {
		for j := range want1[i] {
			if m1.At(i, j) != want1[i][j] {
				t.Fatalf("Unfold(1)[%d,%d] = %g, want %g", i, j, m1.At(i, j), want1[i][j])
			}
		}
	}
}

func TestUnfoldFoldRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(a, b, c uint8, mode uint8) bool {
		dims := []int{int(a%4) + 1, int(b%4) + 1, int(c%4) + 1}
		n := int(mode) % 3
		d := RandomDense(rng, dims...)
		return Fold(d.Unfold(n), n, dims).EqualApprox(d, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUnfoldNormPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := RandomDense(rng, 3, 4, 5)
	for n := 0; n < 3; n++ {
		if math.Abs(d.Unfold(n).Norm()-d.Norm()) > 1e-12 {
			t.Fatalf("mode %d unfolding changed the norm", n)
		}
	}
}

func TestUnfold4Mode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := RandomDense(rng, 2, 3, 2, 2)
	for n := 0; n < 4; n++ {
		m := d.Unfold(n)
		if m.Rows != d.Dims[n] || m.Cols != d.Len()/d.Dims[n] {
			t.Fatalf("mode %d unfold shape %d×%d", n, m.Rows, m.Cols)
		}
		if !Fold(m, n, d.Dims).EqualApprox(d, 0) {
			t.Fatalf("mode %d fold round-trip failed", n)
		}
	}
}

func TestRandomDenseDeterministic(t *testing.T) {
	a := RandomDense(rand.New(rand.NewSource(9)), 3, 3)
	b := RandomDense(rand.New(rand.NewSource(9)), 3, 3)
	if !a.EqualApprox(b, 0) {
		t.Fatal("same seed, different tensors")
	}
}

func TestDenseString(t *testing.T) {
	d := NewDense(2, 2)
	d.Set(1, 0, 0)
	if s := d.String(); s != "Dense[2 2](nnz=1)" {
		t.Fatalf("String = %q", s)
	}
}

func TestHasNonZeroAgreesWithNNZ(t *testing.T) {
	x := NewDense(3, 4, 5)
	if x.HasNonZero() {
		t.Fatal("all-zero tensor reports a non-zero cell")
	}
	x.Data[len(x.Data)-1] = math.Copysign(0, -1)
	if x.HasNonZero() {
		t.Fatal("-0 counted as non-zero")
	}
	for _, v := range []float64{1e-320, math.NaN()} {
		x.Data[len(x.Data)-1] = v
		if !x.HasNonZero() || x.NNZ() != 1 {
			t.Fatalf("last cell %g: HasNonZero %v, NNZ %d", v, x.HasNonZero(), x.NNZ())
		}
	}
}
