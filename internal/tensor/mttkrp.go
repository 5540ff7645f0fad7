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
// The weights of mode n (n = 0 included), enumerated in Fortran order over
// the modes other than 0 and n, come in runs: one weight per row of the
// first such mode, the rows of the later modes held fixed. One builder,
// fillRun, fills a run; the mode-0 pass applies each run as it is built,
// the fold builds a chunk of runs and folds every output row over it. The
// same code serves every number of modes.
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

// scratchPool holds the buffers of the fiber kernels — a mode-0 panel's run
// of fiber weights, a fold's chunk of runs, a fiber's product row — so a
// steady-state sweep allocates no buffer.
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
	ps := passPool.Get().(*fiberPass)
	ps.dst, ps.x, ps.factors, ps.i0n, ps.f = dst, t.Data, factors, t.Dims[0], f
	if n == 0 {
		ps.mode0Pass(t.Dims)
	} else {
		ps.foldFibers(t.Dims, n, sw)
	}
	*ps = fiberPass{mode0: ps.mode0, fold: ps.fold} // hold no argument past the pass
	passPool.Put(ps)
}

// fiberPass carries the arguments of a mode-0 pass or of a fold chunk to
// the task that runs on each panel or output row. The tasks are method
// values bound once per pooled fiberPass, as Sweep.group is per sweep: a
// closure per pass or per chunk would be a steady-state allocation.
type fiberPass struct {
	dst     *mat.Matrix
	x       []float64 // the tensor's data
	factors []*mat.Matrix
	i0n, f  int

	// The mode-0 pass: panels of panel output rows over runs runs of run
	// fibers.
	panel, run, runs int

	// A fold chunk: weights w of positions [r0, r1), fiber products sp
	// (nil: compute each on the spot), dn = Dims[n] and sfn the fibers of
	// a run of one output row.
	w, sp   []float64
	r0, r1  int
	dn, sfn int

	mode0, fold func(i int)
}

// passPool lends each MTTKRP a fiberPass, its tasks already bound.
var passPool = sync.Pool{New: func() any { return new(fiberPass) }}

// runMode is the first mode other than 0 and n, the one whose factor rows
// a run of mode-n fiber weights goes through. There is none when it is N
// or more.
func runMode(n int) int {
	if n == 1 {
		return 2
	}
	return 1
}

// runLen is the length of a run of mode-n fiber weights: the size of
// runMode(n), or 1 when there is no such mode.
func runLen(dims []int, n int) int {
	if k := runMode(n); k < len(dims) {
		return dims[k]
	}
	return 1
}

// fillRun fills w (runLen×F floats) with run r of the fiber weights of the
// modes other than 0 and skip (skip = 0 for all of modes 1..N-1): the
// factor rows of runMode(skip) copied, then each later mode's row — chosen
// by r's Fortran-order digits — multiplied in, in ascending mode order.
// With no such mode the run is one all-ones weight.
func fillRun(w []float64, factors []*mat.Matrix, skip, r int) {
	k := runMode(skip)
	if k >= len(factors) {
		for c := range w {
			w[c] = 1
		}
		return
	}
	copy(w, factors[k].Data)
	for k++; k < len(factors); k++ {
		if k == skip {
			continue
		}
		a := factors[k]
		scaleRows(w, a.Row(r%a.Rows))
		r /= a.Rows
	}
}

// scaleRows multiplies every len(row)-float row of w by row, element by
// element. The columns go in blocks of eight, then four, whose factors
// stay in registers down the whole run; each product is one rounding, so
// the result is the same to the bit in any order.
func scaleRows(w, row []float64) {
	f := len(row)
	c0 := 0
	for ; c0+8 <= f; c0 += 8 {
		s := row[c0 : c0+8 : c0+8]
		s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		for p := c0; p < len(w); p += f {
			r := w[p : p+8 : p+8]
			r[0] *= s0
			r[1] *= s1
			r[2] *= s2
			r[3] *= s3
			r[4] *= s4
			r[5] *= s5
			r[6] *= s6
			r[7] *= s7
		}
	}
	for ; c0+4 <= f; c0 += 4 {
		s := row[c0 : c0+4 : c0+4]
		s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
		for p := c0; p < len(w); p += f {
			r := w[p : p+4 : p+4]
			r[0] *= s0
			r[1] *= s1
			r[2] *= s2
			r[3] *= s3
		}
	}
	for ; c0 < f; c0++ {
		sc := row[c0]
		for p := c0; p < len(w); p += f {
			w[p] *= sc
		}
	}
}

// wChunkFibers is about how many fiber weights a fold builds per chunk:
// whole runs, at least one (bounding scratch near wChunkFibers×F floats).
const wChunkFibers = 4096

// mode0Pass accumulates the mode-0 MTTKRP as rank-one fiber updates over
// output-row panels: per run of fibers, the panel's scratch takes the run's
// weights and one mat.OuterAdd applies them. Every output row sees the
// fibers in ascending order regardless of panel bounds.
func (ps *fiberPass) mode0Pass(dims []int) {
	ps.run = runLen(dims, 0)
	ps.runs = len(ps.x) / (ps.i0n * ps.run)
	workers := par.WorkersFor(len(ps.x) * 2 * ps.f)
	var np int
	ps.panel, np = rowPanels(workers, ps.i0n)
	if ps.mode0 == nil {
		ps.mode0 = ps.mode0Panel
	}
	par.DoWorkers(workers, np, ps.mode0)
}

// mode0Panel runs the mode-0 pass over output-row panel p.
func (ps *fiberPass) mode0Panel(p int) {
	lo := p * ps.panel
	hi := min(lo+ps.panel, ps.i0n)
	run, f, i0n, x, factors := ps.run, ps.f, ps.i0n, ps.x, ps.factors
	wp := getScratch(run * f)
	w := *wp
	panel := ps.dst.Data[lo*f : hi*f]
	for r := range ps.runs {
		fillRun(w, factors, 0, r)
		mat.OuterAdd(panel, w, x[r*run*i0n+lo:], hi-lo, i0n, f)
	}
	scratchPool.Put(wp)
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
// and with them the weight, whatever j is. The weights are built once, a
// chunk of whole runs at a time, and every row folds the chunk. A fold is
// one mat.FoldAdd per stretch of equally spaced rows of S: a whole run of
// the row's fibers, or, when those are single fibers, all of them at once.
func (ps *fiberPass) foldFibers(dims []int, n int, sw *Sweep) {
	f := ps.f
	nf := len(ps.x) / ps.i0n
	ps.dn, ps.sfn = dims[n], 1
	for k := 1; k < n; k++ {
		ps.sfn *= dims[k]
	}
	perRow := nf / dims[n]
	ps.sp = sw.products(ps.factors[0])
	work := nf * 2 * f
	if ps.sp == nil {
		work *= ps.i0n
	}
	workers := par.WorkersFor(work)
	if ps.fold == nil {
		ps.fold = ps.foldRow
	}

	run := runLen(dims, n)
	chunk := min(max(wChunkFibers/run, 1)*run, perRow)
	wp := getScratch(chunk * f)
	defer scratchPool.Put(wp)
	ps.w = *wp
	for ps.r0 = 0; ps.r0 < perRow; ps.r0 += chunk {
		ps.r1 = min(ps.r0+chunk, perRow)
		for q := ps.r0; q < ps.r1; q += run {
			fillRun(ps.w[(q-ps.r0)*f:(q-ps.r0+run)*f], ps.factors, n, q/run)
		}
		par.DoWorkers(workers, dims[n], ps.fold)
	}
}

// foldRow folds the current chunk's fibers into output row j.
func (ps *fiberPass) foldRow(j int) {
	f, sp, r0, r1, sfn, dn := ps.f, ps.sp, ps.r0, ps.r1, ps.sfn, ps.dn
	var s []float64 // a fiber's product when no S holds it
	if sp == nil {
		bp := getScratch(f)
		defer scratchPool.Put(bp)
		s = *bp
	}
	orow := ps.dst.Row(j)
	for r := r0; r < r1; {
		// The stretch from r: to the end of its run, or, when runs are
		// single fibers dn apart, to the end of the chunk.
		fi, count, stride := r*dn+j, r1-r, dn
		if sfn > 1 {
			outer, q := r/sfn, r%sfn
			fi, count, stride = (outer*dn+j)*sfn+q, min(sfn-q, r1-r), 1
		}
		wr := ps.w[(r-r0)*f:]
		if sp != nil {
			mat.FoldAdd(orow, sp[fi*f:], stride*f, wr, count, f)
		} else {
			a0, i0n := ps.factors[0].Data, ps.i0n
			for k := 0; k < count; k++ {
				clear(s)
				fb := (fi + k*stride) * i0n
				mat.VecMatMulAdd(s, a0, ps.x[fb:fb+i0n], f)
				mat.FoldAdd(orow, s, f, wr[k*f:], 1, f)
			}
		}
		r += count
	}
}

// rowPanels splits [0, rows) into np contiguous panels of panel rows (the
// last may be shorter): at most one per worker pass, at least 64 rows
// each. Panel bounds never influence results: each output row is owned by
// exactly one panel. The floor bounds the duplicated per-fiber weight work
// of the mode-0 pass, which recomputes weights once per panel: with
// ≥64-row panels the duplication stays under 1/128 of the panel's
// multiply-add work.
func rowPanels(workers, rows int) (panel, np int) {
	panel = max((rows+workers-1)/workers, 64)
	return panel, (rows + panel - 1) / panel
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
