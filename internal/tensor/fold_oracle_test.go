package tensor

import (
	"math"
	"math/rand"
	"testing"

	"twopcp/internal/mat"
	"twopcp/internal/par"
)

// foldPerFiber is the fold as it was written before it became runs handed
// to mat.FoldAdd, kept as the oracle foldFibers is pinned to: one fiber at a
// time, serial, its product s computed on the spot, its weight rebuilt from
// the factor rows in ascending mode order, and a scalar multiply-then-add
// into the output row.
func foldPerFiber(dst *mat.Matrix, t *Dense, factors []*mat.Matrix, n int) {
	dst.Zero()
	dims := t.Dims
	i0n, f := dims[0], dst.Cols
	nf := len(t.Data) / i0n
	sfn := 1
	for k := 1; k < n; k++ {
		sfn *= dims[k]
	}
	outerN := nf / (sfn * dims[n])
	lowDims, highDims := dims[1:n], dims[n+1:]
	s, buf := make([]float64, f), make([]float64, f)
	for j := 0; j < dims[n]; j++ {
		idxHigh := make([]int, len(highDims))
		orow := dst.Row(j)
		for outer := 0; outer < outerN; outer++ {
			idxLow := make([]int, len(lowDims))
			for q := 0; q < sfn; q++ {
				fi := (outer*dims[n]+j)*sfn + q
				clear(s)
				mat.VecMatMulAdd(s, factors[0].Data, t.Data[fi*i0n:(fi+1)*i0n], f)
				if w := fiberWeight(buf, factors, idxLow, idxHigh, n); w != nil {
					for c, sv := range s {
						orow[c] += sv * w[c]
					}
				} else {
					for c, sv := range s {
						orow[c] += sv
					}
				}
				incIndex(idxLow, lowDims)
			}
			incIndex(idxHigh, highDims)
		}
	}
}

// fiberWeight returns the Hadamard product of the outer-mode factor rows
// (modes 1..n-1 at idxLow, modes n+1.. at idxHigh), multiplied in
// ascending mode order: nil when there is no outer mode, the factor row
// itself when there is one, buf otherwise.
func fiberWeight(buf []float64, factors []*mat.Matrix, idxLow, idxHigh []int, n int) []float64 {
	var w []float64
	rows := 0
	for k := 1; k < len(factors); k++ {
		if k == n {
			continue
		}
		var row []float64
		if k < n {
			row = factors[k].Row(idxLow[k-1])
		} else {
			row = factors[k].Row(idxHigh[k-n-1])
		}
		switch rows {
		case 0:
			w = row
		case 1:
			mat.HadamardVec(buf, w, row)
			w = buf
		default:
			for c := range buf {
				buf[c] *= row[c]
			}
		}
		rows++
	}
	return w
}

func sameMatrixBits(a, b *mat.Matrix) bool {
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// foldOracleShapes are TestFoldMatchesPerFiberOracle's shapes: a size-1
// mode in each position, I_1 ≠ I_2, two-way input (no weight at all), 306
// fibers (filling neither an S group nor a kernel batch), four and five
// modes with runs of one fiber and of many, two four-way shapes whose 4200
// weights per row cross the wChunkFibers boundary — one with single-fiber
// runs, one with 70-fiber runs — and a five-way shape whose 6300 weights
// per row cross it inside a 210-fiber run.
var foldOracleShapes = [][]int{
	{9, 17, 18},
	{33, 15, 13},
	{1, 9, 7},
	{5, 1, 11},
	{7, 5, 1},
	{8, 7},
	{6, 5, 4, 3},
	{5, 3, 1, 4},
	{4, 3, 5, 2, 3},
	{3, 1, 4, 3, 2},
	{2, 3, 70, 60},
	{2, 70, 3, 60},
	{2, 3, 70, 2, 30},
}

// oracleRanks cover the kernels' eight- and four-column blocks, leftover
// columns, and F > I_0, where a Sweep keeps no S.
var oracleRanks = []int{1, 3, 4, 6, 8, 13, 16, 20}

// TestFoldMatchesPerFiberOracle pins every mode n ≥ 1 to the per-fiber
// oracle on bit patterns, through a Sweep (folding from S) and standalone
// (folding as it streams), at several worker counts, on foldOracleShapes
// and oracleRanks.
func TestFoldMatchesPerFiberOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var sw Sweep
	for _, dims := range foldOracleShapes {
		x := RandomDense(rng, dims...)
		for _, f := range oracleRanks {
			factors := randomFactors(rng, dims, f)
			for n := 1; n < len(dims); n++ {
				want := mat.New(dims[n], f)
				foldPerFiber(want, x, factors, n)
				for _, w := range []int{1, 2, 7} {
					func() {
						defer par.PopWorkers(par.PushWorkers(w))
						got := mat.New(dims[n], f)
						got.Fill(42)
						MTTKRPInto(got, x, factors, n)
						if !sameMatrixBits(got, want) {
							t.Fatalf("dims %v f %d mode %d workers %d: MTTKRPInto differs from the per-fiber fold", dims, f, n, w)
						}
						sw.Bind(x)
						for round := 0; round < 2; round++ { // S built, then reused
							got.Fill(42)
							sw.Into(got, factors, n)
							if !sameMatrixBits(got, want) {
								t.Fatalf("dims %v f %d mode %d workers %d round %d: Sweep differs from the per-fiber fold", dims, f, n, w, round)
							}
						}
					}()
				}
			}
		}
	}
}

// TestFoldKeepsSignedZeros: a tensor of -0 makes every product -0 and every
// S row +0 (the sums start at +0); folded into zeroed output rows the result
// is +0 everywhere, on every path.
func TestFoldKeepsSignedZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, dims := range [][]int{{9, 6, 5}, {4, 3, 5, 2}} {
		x := NewDense(dims...)
		for i := range x.Data {
			x.Data[i] = math.Copysign(0, -1)
		}
		for _, f := range []int{3, 8, 12} {
			factors := randomFactors(rng, dims, f)
			var sw Sweep
			sw.Bind(x)
			for n := 1; n < len(dims); n++ {
				want := mat.New(dims[n], f)
				foldPerFiber(want, x, factors, n)
				got := mat.New(dims[n], f)
				MTTKRPInto(got, x, factors, n)
				if !sameMatrixBits(got, want) {
					t.Fatalf("dims %v f %d mode %d: MTTKRPInto's zeros differ in sign from the per-fiber fold's", dims, f, n)
				}
				sw.Into(got, factors, n)
				if !sameMatrixBits(got, want) {
					t.Fatalf("dims %v f %d mode %d: Sweep's zeros differ in sign from the per-fiber fold's", dims, f, n)
				}
			}
		}
	}
}

// mode0PerFiber is the mode-0 MTTKRP one fiber at a time, serial: the
// fiber's weight built by fiberWeight from the factor rows of modes
// 1..N-1 in ascending mode order (all ones when there is no mode 1), then
// a scalar multiply-then-add of every fiber element times the weight into
// its output row.
func mode0PerFiber(dst *mat.Matrix, t *Dense, factors []*mat.Matrix) {
	dst.Zero()
	dims := t.Dims
	i0n, f := dims[0], dst.Cols
	ones := make([]float64, f)
	for c := range ones {
		ones[c] = 1
	}
	buf := make([]float64, f)
	idx := make([]int, len(dims)-1)
	for fb := 0; fb < len(t.Data); fb += i0n {
		w := fiberWeight(buf, factors, nil, idx, 0)
		if w == nil {
			w = ones
		}
		for i, x := range t.Data[fb : fb+i0n] {
			orow := dst.Row(i)
			for c, wc := range w {
				orow[c] += x * wc
			}
		}
		incIndex(idx, dims[1:])
	}
}

// mode0OracleShapes are TestMode0MatchesPerFiberOracle's shapes: one to
// five modes, a size-1 mode in each position, 4352 fibers (past
// wChunkFibers), and 130 rows (more than two 64-row panels) with short
// runs, once below and once above the work at which the pass goes
// parallel.
var mode0OracleShapes = [][]int{
	{17},
	{1},
	{9, 7},
	{1, 5},
	{5, 1},
	{9, 17, 18},
	{1, 9, 7},
	{7, 1, 5},
	{7, 5, 1},
	{6, 5, 4, 3},
	{5, 3, 1, 4},
	{4, 3, 5, 2, 3},
	{3, 1, 4, 3, 2},
	{4, 17, 16, 16},
	{130, 3, 2, 2},
	{130, 9, 5, 2},
}

// TestMode0MatchesPerFiberOracle pins the mode-0 MTTKRP to the per-fiber
// oracle on bit patterns, standalone and through a Sweep, at several
// worker counts, on mode0OracleShapes and oracleRanks.
func TestMode0MatchesPerFiberOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var sw Sweep
	for _, dims := range mode0OracleShapes {
		x := RandomDense(rng, dims...)
		for _, f := range oracleRanks {
			factors := randomFactors(rng, dims, f)
			want := mat.New(dims[0], f)
			mode0PerFiber(want, x, factors)
			for _, w := range []int{1, 2, 7} {
				func() {
					defer par.PopWorkers(par.PushWorkers(w))
					got := mat.New(dims[0], f)
					got.Fill(42)
					MTTKRPInto(got, x, factors, 0)
					if !sameMatrixBits(got, want) {
						t.Fatalf("dims %v f %d workers %d: MTTKRPInto differs from the per-fiber mode-0 pass", dims, f, w)
					}
					got.Fill(42)
					sw.Bind(x)
					sw.Into(got, factors, 0)
					if !sameMatrixBits(got, want) {
						t.Fatalf("dims %v f %d workers %d: Sweep differs from the per-fiber mode-0 pass", dims, f, w)
					}
				}()
			}
		}
	}
}

// FuzzMTTKRPMatchesOracles holds every mode of MTTKRPInto and of a Sweep
// to the per-fiber oracles bit for bit on any shape of one to five modes
// of 1..9 each and any rank 1..20. The input decodes to the mode count
// (modes%5 + 1), the dims (1 + b%9 per byte, 1 past the end of dims), the
// rank (rank%20 + 1) and the seed of the tensor's and factors' values.
func FuzzMTTKRPMatchesOracles(f *testing.F) {
	for _, shapes := range [][][]int{foldOracleShapes, mode0OracleShapes} {
		for i, dims := range shapes {
			b := make([]byte, len(dims))
			for k, d := range dims {
				b[k] = byte(min(d, 9) - 1)
			}
			f.Add(uint8(len(dims)-1), b, uint8(oracleRanks[i%len(oracleRanks)]-1), int64(i))
		}
	}
	f.Fuzz(func(t *testing.T, modes uint8, dimBytes []byte, rank uint8, seed int64) {
		dims := make([]int, int(modes)%5+1)
		for k := range dims {
			dims[k] = 1
			if k < len(dimBytes) {
				dims[k] += int(dimBytes[k]) % 9
			}
		}
		fr := int(rank)%20 + 1
		rng := rand.New(rand.NewSource(seed))
		x := RandomDense(rng, dims...)
		factors := randomFactors(rng, dims, fr)
		var sw Sweep
		sw.Bind(x)
		for n := range dims {
			want := mat.New(dims[n], fr)
			if n == 0 {
				mode0PerFiber(want, x, factors)
			} else {
				foldPerFiber(want, x, factors, n)
			}
			got := mat.New(dims[n], fr)
			MTTKRPInto(got, x, factors, n)
			if !sameMatrixBits(got, want) {
				t.Fatalf("dims %v f %d mode %d: MTTKRPInto differs from the per-fiber oracle", dims, fr, n)
			}
			got.Fill(42)
			sw.Into(got, factors, n)
			if !sameMatrixBits(got, want) {
				t.Fatalf("dims %v f %d mode %d: Sweep differs from the per-fiber oracle", dims, fr, n)
			}
		}
	})
}
