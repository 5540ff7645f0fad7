package mat

import (
	"math/rand"
	"runtime"
	"testing"

	"twopcp/internal/par"
)

var workerCounts = []int{1, 2, 7, runtime.GOMAXPROCS(0)}

// naiveGram is the textbook reference used to bound the panel kernels'
// numerical drift.
func naiveGram(a *Matrix) *Matrix {
	out := New(a.Cols, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for k := 0; k < a.Cols; k++ {
			var s float64
			for i := 0; i < a.Rows; i++ {
				s += a.At(i, j) * a.At(i, k)
			}
			out.Set(j, k, s)
		}
	}
	return out
}

func withWorkers(w int, fn func()) {
	defer par.PopWorkers(par.PushWorkers(w))
	fn()
}

// Shapes straddle the reduction panel size (256 rows) so both the direct
// and the partial-accumulator paths run.
var testShapes = []struct{ rows, cols int }{
	{1, 1}, {3, 5}, {255, 7}, {256, 16}, {257, 16}, {1000, 13}, {2048, 4},
}

func TestGramIntoBitExactAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range testShapes {
		a := Random(sh.rows, sh.cols, rng)
		var serial *Matrix
		withWorkers(1, func() { serial = Gram(a) })
		for _, w := range workerCounts {
			var got *Matrix
			withWorkers(w, func() { got = Gram(a) })
			if !got.Equal(serial) {
				t.Fatalf("%d×%d: Gram workers=%d differs from serial", sh.rows, sh.cols, w)
			}
		}
		if !serial.EqualApprox(naiveGram(a), 1e-9) {
			t.Fatalf("%d×%d: panel Gram diverges from naive reference", sh.rows, sh.cols)
		}
	}
}

func TestTMulIntoBitExactAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, sh := range testShapes {
		a := Random(sh.rows, sh.cols, rng)
		b := Random(sh.rows, sh.cols+1, rng)
		var serial *Matrix
		withWorkers(1, func() { serial = TMul(a, b) })
		for _, w := range workerCounts {
			var got *Matrix
			withWorkers(w, func() { got = TMul(a, b) })
			if !got.Equal(serial) {
				t.Fatalf("%d×%d: TMul workers=%d differs from serial", sh.rows, sh.cols, w)
			}
		}
		if !serial.EqualApprox(Mul(a.T(), b), 1e-9) {
			t.Fatalf("%d×%d: TMul diverges from aᵀ·b", sh.rows, sh.cols)
		}
	}
}

func TestMulIntoBitExactAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, sh := range testShapes {
		a := Random(sh.rows, sh.cols, rng)
		b := Random(sh.cols, 9, rng)
		var serial *Matrix
		withWorkers(1, func() { serial = Mul(a, b) })
		for _, w := range workerCounts {
			var got *Matrix
			withWorkers(w, func() { got = Mul(a, b) })
			if !got.Equal(serial) {
				t.Fatalf("%d×%d: Mul workers=%d differs from serial", sh.rows, sh.cols, w)
			}
		}
	}
	// MulAddInto accumulates on top of existing content.
	a := Random(300, 6, rng)
	b := Random(6, 8, rng)
	base := Random(300, 8, rng)
	var serial *Matrix
	withWorkers(1, func() {
		serial = base.Clone()
		MulAddInto(serial, a, b)
	})
	for _, w := range workerCounts {
		got := base.Clone()
		withWorkers(w, func() { MulAddInto(got, a, b) })
		if !got.Equal(serial) {
			t.Fatalf("MulAddInto workers=%d differs from serial", w)
		}
	}
}

func TestAxpyKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{0, 1, 3, 4, 5, 16, 33} {
		x := make([]float64, n)
		dst := make([]float64, n)
		want := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			dst[i] = rng.NormFloat64()
			want[i] = dst[i] + 2.5*x[i]
		}
		Axpy(dst, x, 2.5)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: Axpy[%d] = %g, want %g", n, i, dst[i], want[i])
			}
		}
	}
}

func TestVecMatMulAddAndOuterAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, f := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 19} {
		rows := 11
		m := make([]float64, rows*f)
		x := make([]float64, rows)
		for i := range m {
			m[i] = rng.NormFloat64()
		}
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// VecMatMulAdd vs per-column reference.
		dst := make([]float64, f)
		VecMatMulAdd(dst, m, x, f)
		for c := 0; c < f; c++ {
			var want float64
			for i := 0; i < rows; i++ {
				want += x[i] * m[i*f+c]
			}
			if diff := dst[c] - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("f=%d: VecMatMulAdd[%d] = %g, want %g", f, c, dst[c], want)
			}
		}
		// OuterAdd vs scalar reference.
		w := make([]float64, f)
		for c := range w {
			w[c] = rng.NormFloat64()
		}
		got := append([]float64(nil), m...)
		OuterAdd(got, w, x, rows, rows, f)
		for i := 0; i < rows; i++ {
			for c := 0; c < f; c++ {
				want := m[i*f+c] + x[i]*w[c]
				if got[i*f+c] != want {
					t.Fatalf("f=%d: OuterAdd[%d,%d] = %g, want %g", f, i, c, got[i*f+c], want)
				}
			}
		}
	}
}

// BenchmarkGram measures the Gram kernel on a tall factor-matrix panel; the
// recorded baselines live in BENCH_kernels.json at the repo root.
func BenchmarkGram(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := Random(1<<15, 32, rng)
	out := New(32, 32)
	for _, w := range []int{1, 0} {
		name := "serial"
		if w == 0 {
			name = "maxprocs"
		}
		b.Run(name, func(b *testing.B) {
			defer par.PopWorkers(par.PushWorkers(w))
			b.SetBytes(int64(a.Rows * a.Cols * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GramInto(out, a)
			}
		})
	}
}

// BenchmarkTMul covers the Phase-2 component refresh kernel.
func BenchmarkTMul(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := Random(1<<14, 16, rng)
	c := Random(1<<14, 16, rng)
	out := New(16, 16)
	defer par.PopWorkers(par.PushWorkers(1))
	b.SetBytes(int64(2 * a.Rows * a.Cols * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMulInto(out, a, c)
	}
}
