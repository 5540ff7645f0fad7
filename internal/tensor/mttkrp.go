package tensor

import (
	"fmt"
	"sync"

	"twopcp/internal/mat"
	"twopcp/internal/par"
)

// Dense MTTKRP, fiber-blocked.
//
// The tensor is Fortran-ordered, so a mode-0 fiber — the I_0 elements that
// differ only in their first index — is a contiguous slice of Data. Every
// mode is computed by one of three routines over whole fibers:
//
//   - the mode-0 pass (mode0Pass): the Hadamard product w of the factor
//     rows of modes 1..N-1 is constant along a fiber, and the whole fiber
//     accumulates into the output panel as the rank-one update
//     out += fiber ⊗ w, a run of equally spaced fibers to a mat.OuterAdd;
//   - the S pass: the product s = fiberᵀ·A(0) of a fiber with the mode-0
//     factor, accumulated front to back from zero (mat.FibersMatMulAdd
//     over a run of fibers, mat.VecMatMulAdd for one). It depends on
//     nothing but X and A(0), so it is the same for every mode n ≥ 1;
//   - the fold (foldFibers): for n ≥ 1 every fiber belongs to exactly one
//     output row, out[j] += s ⊛ w with w the Hadamard product of the
//     remaining factor rows (everything but modes 0 and n).
//
// A standalone MTTKRPInto(n ≥ 1) folds while it streams the S pass, a
// fiber at a time, and keeps no product. Through a Sweep the first fold
// after the mode-0 MTTKRP (which precedes every write of A(0)) is
// preceded by an S pass over the whole tensor, in memory order, that
// stores every s as a row of S = X_(0)ᵀ·A(0); that fold and the
// remaining modes' then read S without touching X, so an ALS
// sweep reads the tensor twice instead of N times. Each s is the same
// front-to-back sum from the same zero and is folded in the same fiber
// order whichever way it is reached, so the outputs are bit-identical.
//
// Parallelism and determinism: work is distributed over mode-n output
// rows (contiguous panels of them for mode 0), each owned by exactly one
// worker invocation, and every row is accumulated in the same fiber order
// as a serial sweep; the rows of S depend on one fiber each and are built
// in fixed groups of consecutive fibers. The floating-point output is
// therefore bit-identical at every worker count, including 1.

// scratchPool holds the per-worker-invocation buffers of the fiber kernels
// — a mode-0 panel's run of fiber weights, a weight chunk of the N-way
// paths, a fiber's product row — so steady-state sweeps allocate nothing.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// getScratch returns a pooled buffer of n floats with arbitrary contents;
// return it with scratchPool.Put.
func getScratch(n int) *[]float64 {
	sp := scratchPool.Get().(*[]float64)
	if cap(*sp) < n {
		*sp = make([]float64, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// MTTKRP computes the Matricized-Tensor Times Khatri-Rao Product for mode n:
//
//	M = X_(n) · (A(N-1) ⊙ ... ⊙ A(n+1) ⊙ A(n-1) ⊙ ... ⊙ A(0))
//
// without materializing the unfolding or the Khatri-Rao product. factors[k]
// must be Dims[k]×F for every k ≠ n; the result is Dims[n]×F.
func MTTKRP(t *Dense, factors []*mat.Matrix, n int) *mat.Matrix {
	checkFactors(t.Dims, factors, n)
	out := mat.New(t.Dims[n], factors[(n+1)%len(factors)].Cols)
	mttkrpInto(out, t, factors, n, nil)
	return out
}

// MTTKRPInto is MTTKRP writing into dst (Dims[n]×F), which is zeroed first.
// Callers that compute several modes against the same factors[0] (an ALS
// sweep) should go through a Sweep instead.
func MTTKRPInto(dst *mat.Matrix, t *Dense, factors []*mat.Matrix, n int) {
	checkMTTKRPArgs(dst, t, factors, n)
	mttkrpInto(dst, t, factors, n, nil)
}

func checkMTTKRPArgs(dst *mat.Matrix, t *Dense, factors []*mat.Matrix, n int) {
	checkFactors(t.Dims, factors, n)
	f := factors[(n+1)%len(factors)].Cols
	if dst.Rows != t.Dims[n] || dst.Cols != f {
		panic(fmt.Sprintf("tensor: MTTKRPInto: dst %d×%d, want %d×%d", dst.Rows, dst.Cols, t.Dims[n], f))
	}
}

// Sweep computes the MTTKRPs of one dense tensor across the modes of ALS
// sweeps, sharing the fiber products S = X_(0)ᵀ·A(0) between modes
// 1..N-1: the first Into(n ≥ 1) after Bind or Into(0) streams the tensor
// and stores S, later ones fold from S alone. Every output is
// bit-identical to MTTKRPInto's provided factors[0] is written only
// between an Into(0) and the next Into(n ≥ 1) — the ALS order, where the
// mode-0 update follows its own MTTKRP.
//
// S holds len(Data)/Dims[0] rows of F floats. When F > Dims[0] that is
// more than the tensor itself, so such shapes stream exactly like
// MTTKRPInto. The buffer is kept across Bind calls (growing on demand), so
// one Sweep serves tensors of any shapes and ranks without steady-state
// allocation; it must not be used concurrently. The zero value is ready
// for Bind.
type Sweep struct {
	t     *Dense
	s     []float64
	valid bool // s holds the products of the current factors[0]

	// The S pass's argument and its task, bound to the sweep on first use:
	// a fresh closure per pass would be the sweep's one steady-state
	// allocation.
	a0    *mat.Matrix
	group func(g int)
}

// Bind points the sweep at t and drops the cached products. Bind(nil)
// releases the tensor while keeping the buffer.
func (sw *Sweep) Bind(t *Dense) {
	sw.t = t
	sw.valid = false
}

// Into is MTTKRPInto on the bound tensor. Into(0) drops the products: its
// caller is about to rewrite factors[0].
func (sw *Sweep) Into(dst *mat.Matrix, factors []*mat.Matrix, n int) {
	checkMTTKRPArgs(dst, sw.t, factors, n)
	if n == 0 {
		sw.valid = false
	}
	mttkrpInto(dst, sw.t, factors, n, sw)
}

// products returns S = X_(0)ᵀ·a0 for the bound tensor, running the S pass
// first if the rows are not current. A nil sweep, or a shape whose S would
// outgrow the tensor, gets nil: compute each product on the spot, keep
// none.
func (sw *Sweep) products(a0 *mat.Matrix) []float64 {
	if sw == nil || a0.Cols > a0.Rows {
		return nil
	}
	if !sw.valid {
		i0n, f := a0.Rows, a0.Cols
		nf := len(sw.t.Data) / i0n
		if cap(sw.s) < nf*f {
			sw.s = make([]float64, nf*f)
		}
		sw.s = sw.s[:nf*f]
		sw.a0 = a0
		if sw.group == nil {
			sw.group = sw.productGroup
		}
		groups := (nf + productGroupFibers - 1) / productGroupFibers
		par.DoWorkers(par.WorkersFor(nf*i0n*2*f), groups, sw.group)
		sw.a0 = nil
		sw.valid = true
	}
	return sw.s
}

// productGroupFibers is how many consecutive fibers one task of the S pass
// covers: a constant, so the groups are the same at every worker count
// (each row of S is one fiber's sum either way), and a multiple of the
// kernel's fiber batch.
const productGroupFibers = 128

// productGroup fills the rows of S for fiber group g.
func (sw *Sweep) productGroup(g int) {
	i0n, f := sw.a0.Rows, sw.a0.Cols
	lo := g * productGroupFibers
	hi := min(lo+productGroupFibers, len(sw.s)/f)
	s := sw.s[lo*f : hi*f]
	clear(s)
	mat.FibersMatMulAdd(s, sw.a0.Data, sw.t.Data[lo*i0n:hi*i0n], i0n, f)
}

// mttkrpInto zeroes dst and accumulates the mode-n MTTKRP into it. sw is
// the sweep whose fiber products modes n ≥ 1 share; nil keeps none.
func mttkrpInto(dst *mat.Matrix, t *Dense, factors []*mat.Matrix, n int, sw *Sweep) {
	dst.Zero()
	f := dst.Cols
	if len(t.Data) == 0 || f == 0 {
		return
	}
	switch {
	case len(t.Dims) == 1:
		// Degenerate: the Khatri-Rao chain is empty, M[i,c] = x[i].
		for i0, v := range t.Data {
			orow := dst.Row(i0)
			for c := range orow {
				orow[c] += v
			}
		}
	case n == 0:
		mode0Pass(dst, t, factors, f)
	default:
		foldFibers(dst, t, factors, n, sw)
	}
}

// wChunkFibers is how many fiber weights the N-way paths materialize per
// chunk (bounding scratch at wChunkFibers×F floats).
const wChunkFibers = 4096

// mode0Pass accumulates the mode-0 MTTKRP as rank-one fiber updates over
// output-row panels. Every output row sees the fibers in ascending order
// regardless of panel bounds.
func mode0Pass(dst *mat.Matrix, t *Dense, factors []*mat.Matrix, f int) {
	dims := t.Dims
	i0n := dims[0]
	x := t.Data
	workers := par.WorkersFor(len(x) * 2 * f)
	if len(dims) == 3 {
		// 3-way fast path (the paper's benchmark shape): per i2, the weights
		// of the i1n fibers are the rows of A(1) times A(2)'s row i2, built
		// into the panel's scratch and applied in one run.
		i1n, i2n := dims[1], dims[2]
		a1, a2 := factors[1], factors[2]
		parRowPanels(workers, i0n, func(lo, hi int) {
			wp := getScratch(i1n * f)
			w := *wp
			panel := dst.Data[lo*f : hi*f]
			for i2 := 0; i2 < i2n; i2++ {
				r2 := a2.Row(i2)
				for i1 := 0; i1 < i1n; i1++ {
					mat.HadamardVec(w[i1*f:(i1+1)*f], a1.Row(i1), r2)
				}
				mat.OuterAdd(panel, w, x[i2*i1n*i0n+lo:], hi-lo, i0n, f)
			}
			scratchPool.Put(wp)
		})
		return
	}
	// Generic N-way: materialize fiber weights in chunks, then apply each
	// chunk's updates.
	nf := len(x) / i0n
	sp := getScratch(wChunkFibers * f)
	wchunk := *sp
	for cf0 := 0; cf0 < nf; cf0 += wChunkFibers {
		cf1 := min(cf0+wChunkFibers, nf)
		buildFiberWeights(wchunk, factors, 0, cf0, cf1, f, workers)
		parRowPanels(workers, i0n, func(lo, hi int) {
			mat.OuterAdd(dst.Data[lo*f:hi*f], wchunk[:(cf1-cf0)*f], x[cf0*i0n+lo:], hi-lo, i0n, f)
		})
	}
	scratchPool.Put(sp)
}

// foldFibers accumulates the mode-n (n ≥ 1) MTTKRP: output row j adds
// s ⊛ w for each of its fibers in ascending fiber order. s is the fiber's
// row of sw's product matrix S, or, when there is no S, a scratch row
// computed on the spot — in which case the fold streams the tensor once.
//
// Fiber-space geometry: fibers are indexed by (i_1, ..., i_{N-1}) in
// Fortran order, so the fibers of row j are outerN runs of sfn consecutive
// fibers, and run by run they are the fibers of every other row: position
// r = outer·sfn + q of that sequence indexes the modes other than 0 and n,
// and with them the weight, whatever j is. A 3-way tensor has one such mode
// and its factor is the weight panel; otherwise the weights are built once,
// a chunk at a time, and every row folds the chunk. A fold is one
// mat.FoldAdd per stretch of equally spaced rows of S: a whole run, or,
// when the runs are single fibers, all of them at once.
func foldFibers(dst *mat.Matrix, t *Dense, factors []*mat.Matrix, n int, sw *Sweep) {
	dims := t.Dims
	i0n, f := dims[0], dst.Cols
	x := t.Data
	nf := len(x) / i0n
	sfn := 1
	for k := 1; k < n; k++ {
		sfn *= dims[k]
	}
	perRow := nf / dims[n]
	a0 := factors[0]
	sp := sw.products(a0)
	work := nf * 2 * f
	if sp == nil {
		work *= i0n
	}
	workers := par.WorkersFor(work)

	var w []float64 // the weights of positions [r0, r1)
	chunk := perRow
	built := len(dims) != 3
	if !built {
		w = factors[3-n].Data
	} else {
		chunk = min(chunk, wChunkFibers)
		wp := getScratch(chunk * f)
		defer scratchPool.Put(wp)
		w = *wp
	}
	for r0 := 0; r0 < perRow; r0 += chunk {
		// Fresh, assigned-once copies for the task below to capture by
		// value: the originals would each move to the heap, once per fold.
		r0, r1, w, sfn := r0, min(r0+chunk, perRow), w, sfn
		if built {
			buildFiberWeights(w, factors, n, r0, r1, f, workers)
		}
		par.DoWorkers(workers, dims[n], func(j int) {
			var s []float64 // a fiber's product when no S holds it
			if sp == nil {
				sp := getScratch(f)
				defer scratchPool.Put(sp)
				s = *sp
			}
			orow := dst.Row(j)
			for r := r0; r < r1; {
				// The stretch from r: to the end of its run, or, when runs
				// are single fibers dims[n] apart, to the end of the chunk.
				fi, count, stride := r*dims[n]+j, r1-r, dims[n]
				if sfn > 1 {
					outer, q := r/sfn, r%sfn
					fi, count, stride = (outer*dims[n]+j)*sfn+q, min(sfn-q, r1-r), 1
				}
				wr := w[(r-r0)*f:]
				if sp != nil {
					mat.FoldAdd(orow, sp[fi*f:], stride*f, wr, count, f)
				} else {
					for k := 0; k < count; k++ {
						clear(s)
						fb := (fi + k*stride) * i0n
						mat.VecMatMulAdd(s, a0.Data, x[fb:fb+i0n], f)
						mat.FoldAdd(orow, s, f, wr[k*f:], 1, f)
					}
				}
				r += count
			}
		})
	}
}

// buildFiberWeights fills wchunk with the weights of positions [cf0, cf1)
// of the fiber space spanned by every mode except 0 and skip (Fortran
// order; skip = 0 for all of modes 1..N-1): the Hadamard product of those
// modes' factor rows, multiplied in ascending mode order, all ones when
// there is no such mode. Each weight depends only on its position, so the
// build parallelizes freely.
func buildFiberWeights(wchunk []float64, factors []*mat.Matrix, skip, cf0, cf1, f, workers int) {
	count := cf1 - cf0
	const grain = 512
	np := (count + grain - 1) / grain
	par.DoWorkers(workers, np, func(p int) {
		lo := cf0 + p*grain
		hi := min(lo+grain, cf1)
		// idx[k] is mode k's index; modes 0 and skip stay unused.
		idx := make([]int, len(factors))
		lin := lo
		for k := 1; k < len(factors); k++ {
			if k != skip {
				idx[k] = lin % factors[k].Rows
				lin /= factors[k].Rows
			}
		}
		for fi := lo; fi < hi; fi++ {
			w := wchunk[(fi-cf0)*f : (fi-cf0+1)*f]
			first := true
			for k := 1; k < len(factors); k++ {
				if k == skip {
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
			if first {
				for c := range w {
					w[c] = 1
				}
			}
			for k := 1; k < len(factors); k++ {
				if k == skip {
					continue
				}
				if idx[k]++; idx[k] < factors[k].Rows {
					break
				}
				idx[k] = 0
			}
		}
	})
}

// parRowPanels splits [0, rows) into contiguous panels (at most one per
// worker pass, at least 64 rows each) and runs fn on each. Panel bounds
// never influence results: each output row is owned by exactly one panel.
// The floor bounds the duplicated per-fiber weight work of the mode-0
// callers, which recompute weights once per panel: with ≥64-row panels
// the duplication stays under 1/128 of the panel's multiply-add work.
func parRowPanels(workers, rows int, fn func(lo, hi int)) {
	panel := (rows + workers - 1) / workers
	if panel < 64 {
		panel = 64
	}
	np := (rows + panel - 1) / panel
	par.DoWorkers(workers, np, func(p int) {
		lo := p * panel
		hi := lo + panel
		if hi > rows {
			hi = rows
		}
		fn(lo, hi)
	})
}

// MTTKRPSparse is MTTKRP over a COO tensor: cost O(nnz · N · F).
func MTTKRPSparse(t *COO, factors []*mat.Matrix, n int) *mat.Matrix {
	checkFactors(t.Dims, factors, n)
	out := mat.New(t.Dims[n], factors[(n+1)%len(factors)].Cols)
	mttkrpSparseInto(out, t, factors, n)
	return out
}

// MTTKRPSparseInto is MTTKRPSparse writing into dst (Dims[n]×F), which is
// zeroed first.
func MTTKRPSparseInto(dst *mat.Matrix, t *COO, factors []*mat.Matrix, n int) {
	checkFactors(t.Dims, factors, n)
	f := factors[(n+1)%len(factors)].Cols
	if dst.Rows != t.Dims[n] || dst.Cols != f {
		panic(fmt.Sprintf("tensor: MTTKRPSparseInto: dst %d×%d, want %d×%d", dst.Rows, dst.Cols, t.Dims[n], f))
	}
	mttkrpSparseInto(dst, t, factors, n)
}

func mttkrpSparseInto(dst *mat.Matrix, t *COO, factors []*mat.Matrix, n int) {
	dst.Zero()
	f := dst.Cols
	sp := getScratch(f)
	defer scratchPool.Put(sp)
	prod := *sp
	for p, v := range t.Vals {
		for c := range prod {
			prod[c] = v
		}
		for k, fk := range factors {
			if k == n {
				continue
			}
			row := fk.Row(t.Indices[k][p])
			for c := range prod {
				prod[c] *= row[c]
			}
		}
		orow := dst.Row(t.Indices[n][p])
		for c := range prod {
			orow[c] += prod[c]
		}
	}
}
