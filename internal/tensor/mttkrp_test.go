package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"twopcp/internal/mat"
	"twopcp/internal/par"
)

// mttkrpRef is the straightforward scalar reference: walk every cell with
// an odometer, form the factor-row product, accumulate into the output row.
func mttkrpRef(t *Dense, factors []*mat.Matrix, n int) *mat.Matrix {
	f := factors[(n+1)%len(factors)].Cols
	out := mat.New(t.Dims[n], f)
	idx := make([]int, len(t.Dims))
	prod := make([]float64, f)
	for _, v := range t.Data {
		for c := range prod {
			prod[c] = v
		}
		for k, fk := range factors {
			if k == n {
				continue
			}
			row := fk.Row(idx[k])
			for c := range prod {
				prod[c] *= row[c]
			}
		}
		orow := out.Row(idx[n])
		for c := range prod {
			orow[c] += prod[c]
		}
		incIndex(idx, t.Dims)
	}
	return out
}

// workerCounts is the grid the bit-exactness tests sweep. GOMAXPROCS is
// usually in the list already; the explicit values exercise fewer-than and
// more-than-CPU configurations either way.
var workerCounts = []int{1, 2, 7, runtime.GOMAXPROCS(0)}

func TestMTTKRPParallelBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{
		{37, 29, 23},
		{64, 1, 5},
		{1, 6, 7},
		{19, 3, 4, 5},
		{8, 7},
		{13},
		{6, 5, 4, 3, 2},
	}
	for _, dims := range shapes {
		x := RandomDense(rng, dims...)
		const f = 5
		factors := make([]*mat.Matrix, len(dims))
		for k := range factors {
			factors[k] = mat.Random(dims[k], f, rng)
		}
		for n := range dims {
			serial := func() *mat.Matrix {
				defer par.PopWorkers(par.PushWorkers(1))
				return MTTKRP(x, factors, n)
			}()
			for _, w := range workerCounts {
				got := func() *mat.Matrix {
					defer par.PopWorkers(par.PushWorkers(w))
					return MTTKRP(x, factors, n)
				}()
				if !got.Equal(serial) {
					t.Fatalf("dims %v mode %d: workers=%d differs from serial", dims, n, w)
				}
			}
			ref := mttkrpRef(x, factors, n)
			if !serial.EqualApprox(ref, 1e-10) {
				t.Fatalf("dims %v mode %d: fiber kernel diverges from scalar reference", dims, n)
			}
		}
	}
}

// TestMTTKRPParallelBitExactLarge forces the parallel dispatch path (the
// small shapes above stay under the serial work threshold).
func TestMTTKRPParallelBitExactLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][]int{{48, 40, 44}, {20, 12, 10, 14}} {
		x := RandomDense(rng, dims...)
		const f = 16
		factors := make([]*mat.Matrix, len(dims))
		for k := range factors {
			factors[k] = mat.Random(dims[k], f, rng)
		}
		for n := range dims {
			serial := func() *mat.Matrix {
				defer par.PopWorkers(par.PushWorkers(1))
				return MTTKRP(x, factors, n)
			}()
			for _, w := range workerCounts {
				got := func() *mat.Matrix {
					defer par.PopWorkers(par.PushWorkers(w))
					return MTTKRP(x, factors, n)
				}()
				if !got.Equal(serial) {
					t.Fatalf("dims %v mode %d: workers=%d differs from serial", dims, n, w)
				}
			}
		}
	}
}

func TestMTTKRPIntoMatchesMTTKRP(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dims := []int{9, 8, 7}
	x := RandomDense(rng, dims...)
	factors := make([]*mat.Matrix, 3)
	for k := range factors {
		factors[k] = mat.Random(dims[k], 4, rng)
	}
	for n := range dims {
		want := MTTKRP(x, factors, n)
		dst := mat.New(dims[n], 4)
		dst.Fill(42) // must be fully overwritten
		MTTKRPInto(dst, x, factors, n)
		if !dst.Equal(want) {
			t.Fatalf("mode %d: MTTKRPInto differs from MTTKRP", n)
		}
	}
	// Reuse must be stable: a second call yields the same bits.
	dst := mat.New(dims[1], 4)
	MTTKRPInto(dst, x, factors, 1)
	again := dst.Clone()
	MTTKRPInto(dst, x, factors, 1)
	if !dst.Equal(again) {
		t.Fatal("MTTKRPInto is not idempotent over a reused dst")
	}
}

func TestMTTKRPIntoShapeCheck(t *testing.T) {
	x := NewDense(3, 4, 5)
	factors := []*mat.Matrix{mat.New(3, 2), mat.New(4, 2), mat.New(5, 2)}
	for _, dst := range []*mat.Matrix{mat.New(4, 2), mat.New(3, 3)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for dst %d×%d", dst.Rows, dst.Cols)
				}
			}()
			MTTKRPInto(dst, x, factors, 0)
		}()
	}
}

func TestMTTKRPSparseIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := RandomCOO(rng, 0.4, 6, 5, 4)
	factors := []*mat.Matrix{mat.Random(6, 3, rng), mat.Random(5, 3, rng), mat.Random(4, 3, rng)}
	for n := 0; n < 3; n++ {
		want := MTTKRPSparse(c, factors, n)
		dst := mat.New(c.Dims[n], 3)
		dst.Fill(-1)
		MTTKRPSparseInto(dst, c, factors, n)
		if !dst.Equal(want) {
			t.Fatalf("mode %d: MTTKRPSparseInto differs", n)
		}
	}
}

// TestMTTKRPZeroAndEdgeShapes covers empty tensors and degenerate modes.
func TestMTTKRPZeroAndEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][]int{{0, 3, 2}, {3, 0, 2}, {2, 2, 2, 0}} {
		x := NewDense(dims...)
		factors := make([]*mat.Matrix, len(dims))
		for k := range factors {
			factors[k] = mat.Random(dims[k], 3, rng)
		}
		for n := range dims {
			got := MTTKRP(x, factors, n)
			if got.Rows != dims[n] || got.Cols != 3 {
				t.Fatalf("dims %v mode %d: shape %d×%d", dims, n, got.Rows, got.Cols)
			}
			if got.MaxAbs() != 0 {
				t.Fatalf("dims %v mode %d: nonzero output of empty tensor", dims, n)
			}
		}
	}
	// 1-mode tensor: M[i,c] = x[i].
	x := RandomDense(rng, 4)
	got := MTTKRP(x, []*mat.Matrix{mat.New(4, 2)}, 0)
	for i := 0; i < 4; i++ {
		for c := 0; c < 2; c++ {
			if got.At(i, c) != x.Data[i] {
				t.Fatalf("1-mode MTTKRP[%d,%d] = %g, want %g", i, c, got.At(i, c), x.Data[i])
			}
		}
	}
}

func TestMTTKRPGenericMatchesReferenceManyShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		nm := rng.Intn(4) + 2
		dims := make([]int, nm)
		for k := range dims {
			dims[k] = rng.Intn(6) + 1
		}
		f := rng.Intn(7) + 1
		x := RandomDense(rng, dims...)
		factors := make([]*mat.Matrix, nm)
		for k := range factors {
			factors[k] = mat.Random(dims[k], f, rng)
		}
		for n := range dims {
			got := MTTKRP(x, factors, n)
			ref := mttkrpRef(x, factors, n)
			if !got.EqualApprox(ref, 1e-10) {
				t.Fatalf("trial %d dims %v mode %d f %d: mismatch", trial, dims, n, f)
			}
		}
	}
}

func TestParRowPanelsCoversRows(t *testing.T) {
	for _, rows := range []int{1, 15, 16, 17, 100, 1024} {
		for _, w := range workerCounts {
			seen := make([]bool, rows)
			panel, np := rowPanels(w, rows)
			for p := 0; p < np; p++ {
				for i := p * panel; i < min((p+1)*panel, rows); i++ {
					if seen[i] {
						t.Fatalf("rows=%d workers=%d: row %d visited twice", rows, w, i)
					}
					seen[i] = true
				}
			}
			for i, s := range seen {
				if !s {
					t.Fatalf("rows=%d workers=%d: row %d not visited", rows, w, i)
				}
			}
		}
	}
}

func ExampleMTTKRP() {
	x := NewDense(2, 2, 2)
	x.Fill(func(idx []int) float64 { return float64(idx[0] + 2*idx[1] + 4*idx[2]) })
	ones := mat.FromRows([][]float64{{1}, {1}})
	m := MTTKRP(x, []*mat.Matrix{ones, ones, ones}, 0)
	fmt.Println(m.At(0, 0), m.At(1, 0))
	// Output: 12 16
}
