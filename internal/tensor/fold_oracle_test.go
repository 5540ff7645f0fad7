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

// contractFold is the oracle of a Sweep's fold from its contraction on
// mode m, for an output mode n ≠ m: one cell of the modes other than m at a
// time, in Fortran order over them, serial. The cell's contraction
// y = Σ_{i_m} x·A(m)[i_m] runs front to back from zero in ascending i_m;
// its weight is the Hadamard product of the factor rows of the modes other
// than m and n, multiplied in ascending mode order (all ones when there is
// none); and y ⊛ w joins output row i_n, each product multiplied, then
// added.
func contractFold(dst *mat.Matrix, t *Dense, factors []*mat.Matrix, m, n int) {
	dst.Zero()
	dims, strides := t.Dims, t.Strides()
	f := dst.Cols
	y, w := make([]float64, f), make([]float64, f)
	idx := make([]int, len(dims)) // idx[m] stays 0
	for cell := 0; cell < len(t.Data)/dims[m]; cell++ {
		off := 0
		for k, i := range idx {
			off += i * strides[k]
		}
		clear(y)
		for i := 0; i < dims[m]; i++ {
			x, a := t.Data[off+i*strides[m]], factors[m].Row(i)
			for c := range y {
				y[c] += x * a[c]
			}
		}
		for c := range w {
			w[c] = 1
		}
		first := true
		for k := range dims {
			if k == m || k == n {
				continue
			}
			row := factors[k].Row(idx[k])
			if first {
				copy(w, row)
				first = false
				continue
			}
			for c := range w {
				w[c] *= row[c]
			}
		}
		orow := dst.Row(idx[n])
		for c := range orow {
			orow[c] += y[c] * w[c]
		}
		for k := range idx { // the next cell, skipping mode m
			if k == m {
				continue
			}
			if idx[k]++; idx[k] < dims[k] {
				break
			}
			idx[k] = 0
		}
	}
}

// sweepWant is the oracle of sw's last Into(n), bit for bit: the fold from
// its contraction on sw.m, or, when it holds none, the per-fiber oracles of
// MTTKRPInto.
func sweepWant(sw *Sweep, x *Dense, factors []*mat.Matrix, n int) *mat.Matrix {
	want := mat.New(x.Dims[n], factors[0].Cols)
	switch {
	case sw.m >= 0:
		contractFold(want, x, factors, sw.m, n)
	case n == 0:
		mode0PerFiber(want, x, factors)
	default:
		foldPerFiber(want, x, factors, n)
	}
	return want
}

// withinRoundoff reports whether got agrees with want, another association
// of the same products, cell by cell within 4·cells·ε of scale, the MTTKRP
// of |X| with the factors' absolute values.
func withinRoundoff(got, want *mat.Matrix, x *Dense, factors []*mat.Matrix, n int) bool {
	ax := x.Clone()
	for i, v := range ax.Data {
		ax.Data[i] = math.Abs(v)
	}
	af := make([]*mat.Matrix, len(factors))
	for k, a := range factors {
		af[k] = a.Clone()
		for i, v := range af[k].Data {
			af[k].Data[i] = math.Abs(v)
		}
	}
	scale := mat.New(got.Rows, got.Cols)
	MTTKRPInto(scale, ax, af, n)
	tol := 4 * float64(len(x.Data)) * 0x1p-52
	for i, v := range got.Data {
		if math.Abs(v-want.Data[i]) > tol*scale.Data[i] {
			return false
		}
	}
	return true
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
// oracle on bit patterns, standalone (folding as it streams), and the S
// pass's fold to it too (contractFold on mode 0), at several worker counts,
// on foldOracleShapes and oracleRanks; a Sweep's folds, from whichever
// contraction it holds, are pinned to contractFold.
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
				s0 := mat.New(dims[n], f)
				contractFold(s0, x, factors, 0, n)
				if !sameMatrixBits(s0, want) {
					t.Fatalf("dims %v f %d mode %d: the contraction on mode 0 folds differently from the per-fiber fold", dims, f, n)
				}
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
						for round := 0; round < 2; round++ { // contraction made, then reused
							got.Fill(42)
							sw.Into(got, factors, n)
							if !sameMatrixBits(got, sweepWant(&sw, x, factors, n)) {
								t.Fatalf("dims %v f %d mode %d workers %d round %d: Sweep differs from its oracle (contraction on %d)", dims, f, n, w, round, sw.m)
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
// oracle on bit patterns, standalone, at several worker counts, on
// mode0OracleShapes and oracleRanks. Through a Sweep, the first Into(0)
// after Bind contracts on mode N−1 where I_{N−1} ≥ I_0, so its mode 0 is
// pinned to contractFold there and to the per-fiber pass elsewhere.
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
					if !sameMatrixBits(got, sweepWant(&sw, x, factors, 0)) {
						t.Fatalf("dims %v f %d workers %d: Sweep differs from its oracle (contraction on %d)", dims, f, w, sw.m)
					}
				}()
			}
		}
	}
}

// sweepShapes have I_0 shorter than a later mode (I_0 shortest in all but
// the last), so a Sweep contracts on modes m ≥ 1.
var sweepShapes = [][]int{
	{2, 9, 9},
	{3, 5, 7},
	{4, 9, 6},
	{5, 4, 8},
	{2, 4, 6, 8},
	{1, 3, 5, 7, 9},
	{3, 9},
	{6, 2, 9, 3},
}

// FuzzMTTKRPMatchesOracles holds every mode of MTTKRPInto to the per-fiber
// oracles bit for bit on any shape of one to five modes of 1..9 each and
// any rank 1..20, and drives a Sweep through a random sequence of Into
// calls, rewriting at random only the factor just computed, as ALS does.
// Each of the sweep's outputs must match sweepWant bit for bit, MTTKRPInto
// within withinRoundoff, and its own bits at 1, 2 and 7 workers. The input
// decodes to the mode count (modes%5 + 1), the dims (1 + b%9 per byte, 1
// past the end of dims), the rank (rank%20 + 1) and the seed of the
// tensor's and factors' values and of the sequence.
func FuzzMTTKRPMatchesOracles(f *testing.F) {
	for _, shapes := range [][][]int{foldOracleShapes, mode0OracleShapes, sweepShapes} {
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
		}

		seq := make([]int, 3*len(dims)+2)
		rewrite := make([]bool, len(seq))
		for i := range seq {
			seq[i], rewrite[i] = rng.Intn(len(dims)), rng.Intn(3) > 0
		}
		var outs []*mat.Matrix
		for _, w := range []int{1, 2, 7} {
			func() {
				defer par.PopWorkers(par.PushWorkers(w))
				fs := make([]*mat.Matrix, len(factors))
				for k, a := range factors {
					fs[k] = a.Clone()
				}
				var sw Sweep
				sw.Bind(x)
				for i, n := range seq {
					got := mat.New(dims[n], fr)
					got.Fill(42)
					sw.Into(got, fs, n)
					if w == 1 {
						if !sameMatrixBits(got, sweepWant(&sw, x, fs, n)) {
							t.Fatalf("dims %v f %d step %d mode %d: Sweep differs from its oracle (contraction on %d)", dims, fr, i, n, sw.m)
						}
						want := mat.New(dims[n], fr)
						MTTKRPInto(want, x, fs, n)
						if !withinRoundoff(got, want, x, fs, n) {
							t.Fatalf("dims %v f %d step %d mode %d: Sweep is not MTTKRPInto to rounding", dims, fr, i, n)
						}
						outs = append(outs, got)
					} else if !sameMatrixBits(got, outs[i]) {
						t.Fatalf("dims %v f %d step %d mode %d: Sweep's bits differ at %d workers", dims, fr, i, n, w)
					}
					if rewrite[i] {
						r := rand.New(rand.NewSource(seed + int64(i)))
						for j := range fs[n].Data {
							fs[n].Data[j] = r.NormFloat64()
						}
					}
				}
			}()
		}
	})
}
