package tensor

import (
	"fmt"
	"slices"
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
//   - the contraction Y_m = X ×_m A(m) on one mode m: one row of F floats
//     per cell of the other modes, in Fortran order over them, each the
//     front-to-back sum from zero, in ascending i_m, of the tensor's
//     mode-m fiber times A(m). On m = 0 it is the S pass, s = fiberᵀ·A(0)
//     for every contiguous fiber (mat.FibersMatMulAdd over a run of
//     fibers, mat.VecMatMulAdd for one); on m ≥ 1 it is one mat.OuterAdd
//     per panel of I_0 consecutive rows, over the I_m mode-0 fibers that
//     panel sums, mode m's stride apart — the mode-0 pass's kernel with
//     A(m) for weights;
//   - the fold (foldFibers): for n ≠ m every row of Y_m belongs to exactly
//     one output row, out[j] += y ⊛ w with w the Hadamard product of the
//     remaining factor rows (everything but modes m and n). Y_m is the S
//     of the tensor with mode m moved to the front, so the fold is the
//     same code on the permuted dims and factors.
//
// The weights of mode n (n = 0 included), enumerated in Fortran order over
// the modes other than the front one and n, come in runs: one weight per
// row of the first such mode, the rows of the later modes held fixed. One
// builder, fillRun, fills a run; the mode-0 pass applies each run as it is
// built, the fold builds a chunk of runs and folds every output row over
// it. The same code serves every number of modes.
//
// A standalone MTTKRPInto(n ≥ 1) folds while it streams the S pass, a
// fiber at a time, and keeps no product; its output is the per-fiber
// association, the S pass then the fold. A Sweep keeps one contraction
// and folds every mode it can from it (see Sweep): its outputs on a
// contraction with m ≥ 1 sum the same products in another association, so
// they agree with MTTKRPInto to rounding, not to the bit.
//
// Parallelism and determinism: work is distributed over output rows
// (contiguous panels of them for mode 0) and over fixed groups of rows of
// Y_m (fiber groups for m = 0, I_0-row panels for m ≥ 1), each owned by
// exactly one worker invocation, and every element is accumulated in the
// same order as a serial pass. The floating-point output is therefore
// bit-identical at every worker count, including 1.

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
// sweeps. It holds one contraction Y_m = X ×_m A(m) and answers every
// Into(n) with n ≠ m by a fold from Y_m alone, without touching the
// tensor. Into(m) drops Y_m: its caller is about to rewrite A(m). An Into
// that finds no contraction makes one on the mode p of the previous Into —
// the factor the caller has just rewritten, which then stays fixed for the
// next N−1 updates, across the sweep boundary — so a sweep of ALS reads
// the tensor N/(N−1) times instead of twice (1.5 passes for three modes;
// Ma & Solomonik's multi-sweep dimension tree). After Bind, p is
// (n−1) mod N.
//
// The contraction on p is made only when I_p ≥ I_0, so Y_p never outgrows
// the S = Y_0 that MTTKRPInto's S pass would store; otherwise, or when
// p = n, Into takes the per-fiber path: the mode-0 pass for n = 0, the S
// pass (stored as Y_0) and a fold for n ≥ 1. No contraction is kept when
// F > I_0, where even S would outgrow the tensor: those folds stream it
// like MTTKRPInto.
//
// The contract: between two Into calls the caller rewrites at most the
// factor whose MTTKRP it has just taken, as ALS does. A caller that
// rewrites any other factor (an extrapolation step that moves every mode
// at once) must Bind again, which drops the contraction. Each output is
// then a fixed association of the products: bit-identical at every worker
// count and with or without the vector kernels, equal to MTTKRPInto's
// bits on the per-fiber path and to rounding on a contraction with
// m ≥ 1.
//
// Y_m holds len(Data)/I_m rows of F floats. The buffer is kept across
// Bind calls (growing on demand), so one Sweep serves tensors of any
// shapes and ranks without steady-state allocation; it must not be used
// concurrently. The zero value is ready for Bind.
type Sweep struct {
	t    *Dense
	y    []float64
	m    int // the mode y is contracted on; -1 when it holds none
	prev int // the mode of the previous Into; -1 after Bind

	// passes counts the passes over the tensor: contractions, mode-0
	// passes and streamed folds.
	passes int

	// The contraction's argument, panel geometry (for m ≥ 1: lowN panels
	// per step of the modes after m, mode m's stride) and task, bound to
	// the sweep on first use: a fresh closure per pass would be the
	// sweep's one steady-state allocation.
	a            *mat.Matrix
	lowN, stride int
	group        func(g int)

	// The permuted view a fold from Y_m reads: dims and factors with mode
	// m first, the rest in ascending order.
	dims    []int
	factors []*mat.Matrix
}

// Bind points the sweep at t and drops the contraction. Bind(nil) releases
// the tensor while keeping the buffer.
func (sw *Sweep) Bind(t *Dense) {
	sw.t = t
	sw.m, sw.prev = -1, -1
}

// Into is the mode-n MTTKRP of the bound tensor into dst (Dims[n]×F),
// which is zeroed first: a fold from the sweep's contraction, made first
// if there is none (see Sweep).
func (sw *Sweep) Into(dst *mat.Matrix, factors []*mat.Matrix, n int) {
	checkMTTKRPArgs(dst, sw.t, factors, n)
	sw.prepare(factors, n, dst.Cols)
	mttkrpInto(dst, sw.t, factors, n, sw)
}

// prepare leaves in the sweep the contraction that answers Into(n) at rank
// f, dropping and making one as the rule says, and counts the pass that
// Into makes when there is none.
func (sw *Sweep) prepare(factors []*mat.Matrix, n, f int) {
	dims := sw.t.Dims
	p := sw.prev
	if p < 0 {
		p = (n + len(dims) - 1) % len(dims)
	}
	sw.prev = n
	if sw.m == n {
		sw.m = -1
	}
	if sw.m < 0 && len(sw.t.Data) > 0 && f > 0 && f <= dims[0] {
		switch {
		case p != n && dims[p] >= dims[0]:
			sw.contract(factors[p], p)
		case n != 0:
			sw.contract(factors[0], 0)
		}
	}
	if sw.m < 0 {
		sw.passes++ // the mode-0 pass or a streamed fold
	}
}

// contract computes Y_m = X ×_m a into the sweep's buffer.
func (sw *Sweep) contract(a *mat.Matrix, m int) {
	dims, x, f := sw.t.Dims, sw.t.Data, a.Cols
	rows := len(x) / dims[m]
	if cap(sw.y) < rows*f {
		sw.y = make([]float64, rows*f)
	}
	sw.y = sw.y[:rows*f]
	sw.a, sw.m = a, m
	tasks := (rows + productGroupFibers - 1) / productGroupFibers
	if m > 0 {
		sw.lowN = 1
		for k := 1; k < m; k++ {
			sw.lowN *= dims[k]
		}
		sw.stride = dims[0] * sw.lowN
		tasks = rows / dims[0]
	}
	if sw.group == nil {
		sw.group = sw.contractGroup
	}
	par.DoWorkers(par.WorkersFor(len(x)*2*f), tasks, sw.group)
	sw.a = nil
	sw.passes++
}

// productGroupFibers is how many consecutive fibers one task of the S pass
// covers: a constant, so the groups are the same at every worker count
// (each row of S is one fiber's sum either way), and a multiple of the
// kernel's fiber batch.
const productGroupFibers = 128

// contractGroup fills task g's rows of Y_m: fiber group g of the S pass
// for m = 0, panel g for m ≥ 1. Panel g is the I_0 rows of the g-th cell
// of the modes other than 0 and m, in Fortran order; its fibers start at
// that cell's offset in X with i_m = 0.
func (sw *Sweep) contractGroup(g int) {
	x, a, i0n := sw.t.Data, sw.a, sw.t.Dims[0]
	f := a.Cols
	if sw.m == 0 {
		lo := g * productGroupFibers
		hi := min(lo+productGroupFibers, len(sw.y)/f)
		y := sw.y[lo*f : hi*f]
		clear(y)
		mat.FibersMatMulAdd(y, a.Data, x[lo*i0n:hi*i0n], i0n, f)
		return
	}
	y := sw.y[g*i0n*f : (g+1)*i0n*f]
	clear(y)
	low, high := g%sw.lowN, g/sw.lowN
	mat.OuterAdd(y, a.Data, x[low*i0n+high*sw.stride*a.Rows:], i0n, sw.stride, f)
}

// permute fills the sweep's view of the tensor with mode m in front and
// returns its dims and the view's number of mode n.
func (sw *Sweep) permute(factors []*mat.Matrix, n int) ([]int, int) {
	dims, m := sw.t.Dims, sw.m
	sw.dims = append(append(append(slices.Grow(sw.dims[:0], len(dims)), dims[m]), dims[:m]...), dims[m+1:]...)
	sw.factors = append(append(append(slices.Grow(sw.factors[:0], len(dims)), factors[m]), factors[:m]...), factors[m+1:]...)
	if n < m {
		n++
	}
	return sw.dims, n
}

// mttkrpInto zeroes dst and accumulates the mode-n MTTKRP into it: folded
// from sw's contraction when it holds one, the mode-0 pass or a streamed
// fold otherwise (sw nil: always).
func mttkrpInto(dst *mat.Matrix, t *Dense, factors []*mat.Matrix, n int, sw *Sweep) {
	dst.Zero()
	f := dst.Cols
	if len(t.Data) == 0 || f == 0 {
		return
	}
	ps := passPool.Get().(*fiberPass)
	ps.dst, ps.x, ps.factors, ps.i0n, ps.f = dst, t.Data, factors, t.Dims[0], f
	switch {
	case sw != nil && sw.m >= 0:
		dims, pn := sw.permute(factors, n)
		ps.factors, ps.i0n, ps.sp = sw.factors, dims[0], sw.y
		ps.foldFibers(dims, pn)
		clear(sw.factors) // hold no factor past the call
	case n == 0:
		ps.mode0Pass(t.Dims)
	default:
		ps.foldFibers(t.Dims, n)
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
	// (nil: compute each on the spot), dn = dims[n] and sfn the fibers of
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
// row of the product matrix ps.sp (S, or a sweep's Y_m with dims and
// factors permuted to put mode m first), or, when ps.sp is nil, a scratch
// row computed on the spot — in which case the fold streams the tensor
// once.
//
// Fiber-space geometry: fibers are indexed by (i_1, ..., i_{N-1}) in
// Fortran order, so the fibers of row j are outerN runs of sfn consecutive
// fibers, and run by run they are the fibers of every other row: position
// r = outer·sfn + q of that sequence indexes the modes other than 0 and n,
// and with them the weight, whatever j is. The weights are built once, a
// chunk of whole runs at a time, and every row folds the chunk. A fold is
// one mat.FoldAdd per stretch of equally spaced rows of S: a whole run of
// the row's fibers, or, when those are single fibers, all of them at once.
func (ps *fiberPass) foldFibers(dims []int, n int) {
	f := ps.f
	nf := len(ps.x) / ps.i0n
	ps.dn, ps.sfn = dims[n], 1
	for k := 1; k < n; k++ {
		ps.sfn *= dims[k]
	}
	perRow := nf / dims[n]
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
