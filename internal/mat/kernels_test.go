package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The kernel differential suite: the entry points of kernels.go — Axpy,
// OuterAdd over runs of fibers, VecMatMulAdd, FibersMatMulAdd, FoldAdd and
// HadamardVec — against the generic definition of each — one scalar
// multiply and one scalar add per term, a fiber and a column at a time, no
// blocking — compared on bit patterns, never on a tolerance. In the default
// build on an AVX2 machine that pins the assembly; under -tags purego (or
// without AVX2) it pins the blocked Go loops. The log line says which it
// was.

// The generic definitions. On amd64 the compiler never fuses a multiply
// into an add, so each line below rounds twice.

func axpyGeneric(dst, x []float64, a float64) {
	for i, v := range x {
		dst[i] += a * v
	}
}

func hadamardGeneric(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func outerAddGeneric(rows, w, x []float64, n, xStride, f int) {
	for q := 0; f > 0 && q < len(w)/f; q++ {
		for i := 0; i < n; i++ {
			for c := 0; c < f; c++ {
				rows[i*f+c] += x[q*xStride+i] * w[q*f+c]
			}
		}
	}
}

func vecMatMulAddGeneric(dst, rows, x []float64, f int) {
	for c := 0; c < f; c++ {
		var acc float64
		for i, v := range x {
			acc += v * rows[i*f+c]
		}
		dst[c] += acc
	}
}

func foldAddGeneric(dst, s []float64, sStride int, w []float64, count, f int) {
	for q := 0; q < count; q++ {
		for c := 0; c < f; c++ {
			dst[c] += s[q*sStride+c] * w[q*f+c]
		}
	}
}

// sameBits reports whether got and want hold the same bit patterns, any NaN
// matching any NaN: which payload survives an operation on two NaNs is the
// one thing the two implementations may legitimately disagree on.
func sameBits(got, want []float64) (int, bool) {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i, false
		}
	}
	return 0, true
}

// offsetSlice returns n floats from gen in a slice that starts off elements
// into its allocation, so the suite sees every position of a slice's first
// element within a 32-byte vector.
func offsetSlice(n, off int, gen func() float64) []float64 {
	s := make([]float64, off+n)[off:]
	for i := range s {
		s[i] = gen()
	}
	return s
}

// checkKernels runs the primitives on one shape — nf fibers of n elements
// against f columns (for FoldAdd, a run of n rows; for Axpy and
// HadamardVec, vectors of n), every slice off elements into its allocation
// — with inputs drawn from gen.
func checkKernels(t *testing.T, gen func() float64, f, n, nf, off int) {
	t.Helper()
	clone := func(s []float64) []float64 { return append([]float64(nil), s...) }

	x := offsetSlice(n, off, gen)
	a := gen()
	got := offsetSlice(n, off, gen)
	want := clone(got)
	Axpy(got, x, a)
	axpyGeneric(want, x, a)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("Axpy n=%d off=%d a=%v: [%d] = %x, generic %x", n, off, a, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}

	// HadamardVec into a third slice, then in place (dst = a).
	y := offsetSlice(n, off, gen)
	got = offsetSlice(n, off, gen)
	want = clone(got)
	HadamardVec(got, x, y)
	hadamardGeneric(want, x, y)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("HadamardVec n=%d off=%d: [%d] = %x, generic %x", n, off, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
	want = clone(got)
	HadamardVec(got, got, y)
	hadamardGeneric(want, want, y)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("HadamardVec in place n=%d off=%d: [%d] = %x, generic %x", n, off, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}

	// FoldAdd over n rows: packed when nf is even, far apart when it is odd,
	// and s ends at the last element the fold may read.
	sStride := f
	if nf%2 == 1 {
		sStride = 5*f + nf
	}
	var rowsOfS []float64
	if n > 0 && f > 0 {
		rowsOfS = offsetSlice((n-1)*sStride+f, off, gen)
	}
	weights := offsetSlice(n*f, off, gen)
	got = offsetSlice(f, off, gen)
	want = clone(got)
	FoldAdd(got, rowsOfS, sStride, weights, n, f)
	foldAddGeneric(want, rowsOfS, sStride, weights, n, f)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("FoldAdd f=%d count=%d sStride=%d off=%d: [%d] = %x, generic %x", f, n, sStride, off, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
	if f == 0 || n == 0 {
		return // the panel kernels return before touching anything
	}

	// OuterAdd over a run of nf fibers, packed and then spaced apart; the
	// run ends at the last element the kernel may read.
	panel := offsetSlice(n*f, off, gen)
	for _, xStride := range []int{n, 2*n + 3} {
		var fibers []float64
		if nf > 0 {
			fibers = offsetSlice((nf-1)*xStride+n, off, gen)
		}
		w := offsetSlice(nf*f, off, gen)
		got = clone(panel)
		want = clone(panel)
		OuterAdd(got, w, fibers, n, xStride, f)
		outerAddGeneric(want, w, fibers, n, xStride, f)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("OuterAdd f=%d n=%d count=%d xStride=%d off=%d: [%d,%d] = %x, generic %x", f, n, nf, xStride, off, i/f, i%f, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}

	got = offsetSlice(f, off, gen)
	want = clone(got)
	VecMatMulAdd(got, panel, x, f)
	vecMatMulAddGeneric(want, panel, x, f)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("VecMatMulAdd f=%d n=%d off=%d: [%d] = %x, generic %x", f, n, off, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}

	xs := offsetSlice(nf*n, off, gen)
	got = offsetSlice(nf*f, off, gen)
	want = clone(got)
	FibersMatMulAdd(got, panel, xs, n, f)
	for k := 0; k < nf; k++ {
		vecMatMulAddGeneric(want[k*f:(k+1)*f], panel, xs[k*n:(k+1)*n], f)
	}
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("FibersMatMulAdd f=%d n=%d nf=%d off=%d: fiber %d column %d = %x, generic %x", f, n, nf, off, i/f, i%f, math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
}

// hostileValues are what the random inputs are salted with: both zeros,
// subnormals, values whose products overflow or underflow, infinities, NaN.
var hostileValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -3e-309,
	1e-200, -1e-200, 1e200, -1e200, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// saltedGen draws normal variates over a wide range of exponents and, one
// time in salt, a hostile value instead (salt 0: never).
func saltedGen(rng *rand.Rand, salt int) func() float64 {
	return func() float64 {
		if salt > 0 && rng.Intn(salt) == 0 {
			return hostileValues[rng.Intn(len(hostileValues))]
		}
		return math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20)
	}
}

func TestKernelsMatchGeneric(t *testing.T) {
	t.Logf("kernels: %s", KernelPath())
	rng := rand.New(rand.NewSource(20))
	clean, salted := saltedGen(rng, 0), saltedGen(rng, 6)

	// Axpy and HadamardVec at every length around the 8-, 4- and 1-wide
	// steps.
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			checkKernels(t, clean, 0, n, 0, off)
			checkKernels(t, salted, 0, n, 0, off)
		}
	}

	// The panel kernels: every column count through two eight-blocks and a
	// tail, fiber lengths around the loop bounds, fiber counts from none to
	// two four-fiber batches and a leftover.
	cols := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 24, 32}
	lengths := []int{0, 1, 3, 4, 5, 31, 32, 33, 64}
	for _, f := range cols {
		for _, n := range lengths {
			for nf := 0; nf <= 9; nf++ {
				off := (f + n + nf) % 4
				checkKernels(t, clean, f, n, nf, off)
				checkKernels(t, salted, f, n, nf, off)
			}
		}
	}
}

// TestHadamardVecOfHostilePairs multiplies every ordered pair of hostile
// values — the signs of zeros and infinities, NaN, products that overflow
// or vanish — at every position of vectors of 0 to 17 elements.
func TestHadamardVecOfHostilePairs(t *testing.T) {
	h := len(hostileValues)
	for n := 0; n <= 17; n++ {
		for shift := 0; shift < h*h; shift += max(n, 1) {
			for off := 0; off < 4; off++ {
				k := shift
				a := offsetSlice(n, off, func() float64 { k++; return hostileValues[(k-1)%h] })
				k = shift
				b := offsetSlice(n, off, func() float64 { k++; return hostileValues[(k-1)/h%h] })
				got, want := offsetSlice(n, off, func() float64 { return 1 }), make([]float64, n)
				HadamardVec(got, a, b)
				hadamardGeneric(want, a, b)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d: %v * %v = %x, want %x", n, a[i], b[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestFiberSumOfNegativeZerosIsPositiveZero: a fiber of -0 against a
// positive panel makes every product -0. The sum starts at +0, and
// +0 + -0 = +0, so that is what must land on a zeroed S row — a kernel
// that seeded its accumulator with the first product would store -0.
func TestFiberSumOfNegativeZerosIsPositiveZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, f := range []int{1, 3, 4, 8, 12, 16, 17} {
		for _, nf := range []int{1, 4, 5} {
			const n = 9
			panel := make([]float64, n*f)
			for i := range panel {
				panel[i] = float64(i + 1)
			}
			xs := make([]float64, nf*n)
			for i := range xs {
				xs[i] = negZero
			}
			s := make([]float64, nf*f)
			FibersMatMulAdd(s, panel, xs, n, f)
			for i, v := range s {
				if math.Float64bits(v) != 0 {
					t.Fatalf("f=%d nf=%d: S[%d] = %x, want +0", f, nf, i, math.Float64bits(v))
				}
			}
			// Added to a -0 destination the +0 sum still wins.
			for i := range s {
				s[i] = negZero
			}
			FibersMatMulAdd(s, panel, xs, n, f)
			for i, v := range s {
				if math.Float64bits(v) != 0 {
					t.Fatalf("f=%d nf=%d: -0 + S[%d] = %x, want +0", f, nf, i, math.Float64bits(v))
				}
			}
		}
	}
}

// TestFoldOfNegativeZerosKeepsTheRowsSign: rows of -0 against positive
// weights make every product -0. The fold adds them to the running dst, so
// a zeroed output row stays +0 (+0 + -0 = +0) and a -0 one stays -0 — a
// kernel that summed the run from its own +0 and added that sum to dst
// would turn the second into +0, one seeded with the first product would
// turn the first into -0.
func TestFoldOfNegativeZerosKeepsTheRowsSign(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, f := range []int{1, 3, 4, 8, 12, 16, 17} {
		for _, count := range []int{1, 4, 5} {
			sStride := f + 3
			s := make([]float64, (count-1)*sStride+f)
			for i := range s {
				s[i] = negZero
			}
			w := make([]float64, count*f)
			for i := range w {
				w[i] = float64(i + 1)
			}
			for _, start := range []float64{0, negZero} {
				dst := make([]float64, f)
				for i := range dst {
					dst[i] = start
				}
				FoldAdd(dst, s, sStride, w, count, f)
				for i, v := range dst {
					if math.Float64bits(v) != math.Float64bits(start) {
						t.Fatalf("f=%d count=%d: %x + fold[%d] = %x, want it unchanged", f, count, math.Float64bits(start), i, math.Float64bits(v))
					}
				}
			}
		}
	}
}

// FuzzKernelsMatchGeneric lets the fuzzer pick the shape and the raw bit
// patterns of every input: floats are read from data eight bytes at a
// time, cycling, so any float64 — signalling NaNs included — can reach any
// position of any operand.
func FuzzKernelsMatchGeneric(f *testing.F) {
	seed := make([]byte, 0, 8*len(hostileValues))
	for _, v := range hostileValues {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(8), uint8(9), uint8(5), uint8(1))
	f.Add(seed[:16], uint8(12), uint8(4), uint8(4), uint8(3))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\x00\xc0"), uint8(17), uint8(33), uint8(7), uint8(2))
	f.Add([]byte{}, uint8(4), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, cols, n, nf, off uint8) {
		pos := 0
		gen := func() float64 {
			if len(data) < 8 {
				return 1
			}
			if pos+8 > len(data) {
				pos = 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
			return v
		}
		checkKernels(t, gen, int(cols%40), int(n%70), int(nf%10), int(off%4))
	})
}
