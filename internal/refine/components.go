// Package refine implements Phase 2 of 2PCP (paper §IV–VII): the iterative
// refinement that stitches the Phase-1 sub-factors U(i)_k into the full
// factor matrices A(i) of the input tensor, scheduled either mode-centric
// (Algorithm 1) or block-centric (Algorithm 2) over a buffer-managed store
// of mode-partition data units.
//
// Update rule (from Phan & Cichocki's grid PARAFAC, the paper's eq. 3):
//
//	A(i)_(ki) ← T(i)_(ki) · (S(i)_(ki))⁻¹
//	T(i)_(ki) = Σ_{l: l_i=ki} U(i)_l · ⊛_{h≠i} (U(h)ᵀ_l A(h)_(l_h))
//	S(i)_(ki) = Σ_{l: l_i=ki} ⊛_{h≠i} (A(h)ᵀ_(l_h) A(h)_(l_h))
//
// The mode-i slab of part ki holds every combination of the other modes'
// parts, so the sum in S distributes over the Hadamard product:
// S(i)_(ki) = ⊛_{h≠i} Σ_kh A(h)ᵀ_(kh)A(h)_(kh) = ⊛_{h≠i} A(h)ᵀA(h), the
// normal matrix of dense CP-ALS. It depends neither on ki nor on U.
//
// The F×F products P[l][h] = U(h)ᵀ_l A(h)_(l_h) and Q[h][kh] =
// A(h)ᵀ_(kh)A(h)_(kh) are maintained incrementally in memory as per-mode
// components, and with every Q refresh the mode's Gram A(h)ᵀA(h) is
// re-summed from its Q[h][·] in part order, so S is one Hadamard product
// of the other modes' Grams per update. The paper's Hadamard-division form
// P_l ⊘ (U(i)ᵀ_l A(i)_(ki)) is recovered by multiplying the h≠i
// components, which is algebraically identical, avoids 0/0, and measured
// 1.7× faster than maintaining the products in place (docs/performance.md
// records the ablation). Only the data units {A(i)_(ki); U(i)_slab} ever
// move between disk and buffer, exactly as in the paper's Definition 4.
//
// The update assumes the blocks' sub-factors agree: column r of every
// block the same component, with one sign and scale. Phase 1 solves each
// block alone and promises none of that, so New first aligns the blocks
// (alignBlocks: a breadth-first walk over the grid that permutes, flips and
// rescales each block's columns against a neighbour's without changing
// its [[U_l]]) and then seeds each A(i)_(ki) with the mean of its slab's
// aligned U(i)_l. Phase 2 then starts near the surrogate instead of
// spending its first cycles re-aligning partitions seeded from different
// blocks.
package refine

import (
	"math"

	"twopcp/internal/mat"
	"twopcp/internal/phase1"
)

// components holds the memory-resident F×F bookkeeping of Phase 2.
type components struct {
	// slab[mode][part] = the pattern's Slab(mode, part), the linear ids of
	// the unit's blocks in packed order, computed once.
	slab [][][]int
	// pstack[mode][part] = Slabᵀ·A(mode)_(part) for the unit's packed slab:
	// (L·F)×F, the product of the slab's l-th block in rows l·F….
	pstack [][]*mat.Matrix
	// p[blockID][mode] = U(mode)ᵀ_l A(mode)_(l_mode), the per-mode factor of
	// the paper's P_l: block l's F rows of pstack[mode][l_mode], as a view.
	p [][]*mat.Matrix
	// ugram[blockID][mode] = U(mode)ᵀ_l U(mode)_l, fixed after Phase 1;
	// used for the I/O-free surrogate fit.
	ugram [][]*mat.Matrix
	// q[mode][part] = A(mode)ᵀ_(part) A(mode)_(part); the per-mode factor
	// of the paper's Q_l.
	q [][]*mat.Matrix
	// gram[mode] = Σ_part q[mode][part] = A(mode)ᵀA(mode), summed in part
	// order: the per-mode factor of S and of the surrogate's model term.
	gram []*mat.Matrix
	// unorm2 = Σ_l ‖[[U_l]]‖², the surrogate data norm.
	unorm2 float64
	// SurrogateFit scratch, reused across termination checks (the engine
	// runs single-threaded, so plain fields suffice): an F×F Hadamard
	// accumulator and the all-ones weight vector.
	fitCross *mat.Matrix
	fitOnes  []float64
}

func newComponents(p1 *phase1.Result) *components {
	p := p1.Pattern
	n, f := p.NModes(), p1.Rank
	c := &components{}
	c.p = make([][]*mat.Matrix, p.NumBlocks())
	c.ugram = make([][]*mat.Matrix, p.NumBlocks())
	for id := range c.p {
		c.p[id] = make([]*mat.Matrix, n)
		c.ugram[id] = make([]*mat.Matrix, n)
		for m := 0; m < n; m++ {
			c.ugram[id][m] = mat.Gram(p1.Sub[id][m])
		}
	}
	c.slab = make([][][]int, n)
	c.pstack = make([][]*mat.Matrix, n)
	c.q = make([][]*mat.Matrix, n)
	c.gram = make([]*mat.Matrix, n)
	for m := 0; m < n; m++ {
		c.gram[m] = mat.New(f, f)
		c.slab[m] = make([][]int, p.K[m])
		c.pstack[m] = make([]*mat.Matrix, p.K[m])
		c.q[m] = make([]*mat.Matrix, p.K[m])
		for part := range c.q[m] {
			c.q[m][part] = mat.New(f, f)
			slab := p.Slab(m, part)
			c.slab[m][part] = slab
			stack := mat.New(len(slab)*f, f)
			c.pstack[m][part] = stack
			for l, id := range slab {
				c.p[id][m] = mat.FromSlice(f, f, stack.Data[l*f*f:(l+1)*f*f])
			}
		}
	}
	c.fitCross = mat.New(f, f)
	c.fitOnes = onesVec(f)
	// ‖[[U_l]]‖² = 1ᵀ(⊛_h U(h)ᵀU(h))1 per block.
	for id := range c.ugram {
		hadamardInto(c.fitCross.Data, c.ugram[id], -1)
		c.unorm2 += mat.QuadForm(c.fitCross, c.fitOnes, c.fitOnes)
	}
	return c
}

// setA refreshes the components that depend on A(mode)_(part): the Gram
// q[mode][part], the mode's Gram sum, re-summed in part order so it stays a
// pure function of A (never updated by subtracting the old Gram), and,
// through one product against the unit's packed slab, p[l][mode] for every
// block l of the mode slab.
func (c *components) setA(mode, part int, a, slab *mat.Matrix) {
	q := c.q[mode]
	mat.GramInto(q[part], a)
	c.gram[mode].CopyFrom(q[0])
	for _, qk := range q[1:] {
		c.gram[mode].AddInPlace(qk)
	}
	mat.TMulInto(c.pstack[mode][part], slab, a)
}

// SurrogateFit returns the fit of the current grid model against the
// Phase-1 surrogate ⋃_l [[U_l]] — computable entirely from memory-resident
// components, so the termination check (paper Definition 3, virtual
// iterations) costs no I/O:
//
//	‖X̃ − X̂‖² = Σ_l ‖[[U_l]]‖² − 2·Σ_l 1ᵀ(⊛_h P[l][h])1 + 1ᵀ(⊛_h A(h)ᵀA(h))1
//
// The model term Σ_l 1ᵀ(⊛_h Q[h][l_h])1 = ‖[[A(1), …, A(N)]]‖² factors
// through the per-mode Gram sums because the grid holds every combination
// of parts, so only the cross term is summed block by block.
func (c *components) SurrogateFit() float64 {
	if c.unorm2 == 0 {
		return 1
	}
	ones := c.fitOnes
	var cross float64
	for id := range c.p {
		hadamardInto(c.fitCross.Data, c.p[id], -1)
		cross += mat.QuadForm(c.fitCross, ones, ones)
	}
	hadamardInto(c.fitCross.Data, c.gram, -1)
	err2 := -2*cross + mat.QuadForm(c.fitCross, ones, ones)
	err2 += c.unorm2
	if err2 < 0 {
		err2 = 0
	}
	return 1 - math.Sqrt(err2)/math.Sqrt(c.unorm2)
}

// hadamardInto sets dst to the element-wise product of the given per-mode
// F×F matrices, skipping index skip (-1 to include all). The first factor
// is copied: 1·x is exact, so that is filling dst with ones and multiplying,
// to the bit, in one pass fewer.
func hadamardInto(dst []float64, ms []*mat.Matrix, skip int) {
	first := true
	for h, m := range ms {
		switch {
		case h == skip:
		case first:
			copy(dst, m.Data)
			first = false
		default:
			mat.HadamardVec(dst, dst, m.Data)
		}
	}
	if first { // a one-mode pattern has no h ≠ i: the empty product
		copy(dst, onesVec(len(dst)))
	}
}

func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
