package refine

import (
	"math"
	"slices"

	"twopcp/internal/mat"
	"twopcp/internal/phase1"
)

// StitchVersion names how New turns a Phase-1 result into Phase 2's
// starting point: the block alignment below and the slab-mean seed of
// initialA. It is part of the checkpoint fingerprint: a change to either
// changes every factor a run produces, so an unfinished checkpoint written
// under another version must not be resumed. Checkpoints that record no
// version (zero) started each partition from the first block of its slab,
// unaligned.
const StitchVersion = 1

// alignBlocks returns p1 with each block's columns brought into agreement
// with its neighbours'. Phase 1 solves every block alone, so column r of
// one block's factors need not be column r of the next block's, nor share
// its sign or scale; the grid-PARAFAC update assumes they agree.
//
// The walk is breadth-first over the block grid from block 0, visiting
// each block's face neighbours in ascending block id. A neighbour y of an
// aligned block x differs from it in one mode d and shares its partition
// in every other mode, so their sub-factors there describe the same rows:
//
//   - y's columns are matched to x's greedily by Σ_{h≠d} |cos| of the
//     column pairs over the shared modes, the best pair first, ties to the
//     lower index of x and then of y;
//   - signs are fixed in pairs: a shared mode whose cosine is negative is
//     flipped, and when that is an odd count the differing mode takes one
//     flip more (under nonneg no sign is touched);
//   - each shared mode's column is scaled to x's column norm, and the
//     differing mode takes the inverse of the product of those scales.
//
// So every block's [[U_l]], and with it the surrogate Phase 2 fits, is
// unchanged up to rounding. A column whose norm is zero in some mode adds
// nothing to its block: it keeps its position and is neither matched nor a
// reference. A block with no other kind of column (an all-zero block among
// them) is never moved and never a reference; the walk restarts at the
// lowest unvisited block that has a live column.
//
// The result shares Pattern, Rank and the bookkeeping fields with p1; the
// blocks that moved get fresh matrices, so p1 is never written. The walk
// is serial and fixed, so the result is the same at every worker count and
// on every resume.
func alignBlocks(p1 *phase1.Result, nonneg bool) *phase1.Result {
	p, f := p1.Pattern, p1.Rank
	n, nb := p.NModes(), p.NumBlocks()
	out := *p1
	out.Sub = slices.Clone(p1.Sub)
	if nb < 2 {
		return &out
	}
	al := aligner{f: f, nonneg: nonneg, score: make([]float64, f*f), src: make([]int, f), best: make([]int, f),
		taken: make([]bool, f), cross: make([]*mat.Matrix, n), scale: make([][]float64, n)}
	for h := range al.cross {
		al.cross[h] = mat.New(f, f)
		al.scale[h] = make([]float64, f)
	}
	// norms[id][h][c] is the norm of column c of block id's mode-h factor,
	// as the block stands (aligned, once visited).
	norms := make([][][]float64, nb)
	live := make([][]bool, nb)
	usable := make([]bool, nb)
	for id, sub := range p1.Sub {
		norms[id], live[id] = columnNorms(sub)
		usable[id] = slices.Contains(live[id], true)
	}

	visited := make([]bool, nb)
	queue := make([]int, 0, nb)
	vec := make([]int, n)
	stride := make([]int, n) // a block's id steps by stride[h] along mode h
	for h, s := 0, 1; h < n; h++ {
		stride[h], s = s, s*p.K[h]
	}
	type neighbour struct{ id, mode int } // mode: the one the blocks differ in
	nbrs := make([]neighbour, 0, 2*n)
	for root := range nb {
		if visited[root] || !usable[root] {
			continue
		}
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			p.Unlinear(x, vec)
			// The face neighbours in ascending id: a step back along the
			// highest mode first, a step forward along the lowest last.
			nbrs = nbrs[:0]
			for h := n - 1; h >= 0; h-- {
				if vec[h] > 0 {
					nbrs = append(nbrs, neighbour{x - stride[h], h})
				}
			}
			for h := range n {
				if vec[h] < p.K[h]-1 {
					nbrs = append(nbrs, neighbour{x + stride[h], h})
				}
			}
			for _, nbr := range nbrs {
				y := nbr.id
				if visited[y] || !usable[y] {
					continue
				}
				out.Sub[y] = al.align(out.Sub[x], norms[x], live[x], p1.Sub[y], norms[y], live[y], nbr.mode)
				norms[y], live[y] = columnNorms(out.Sub[y])
				visited[y] = true
				queue = append(queue, y)
			}
		}
	}
	return &out
}

// columnNorms returns the column norms of each mode's factor and which
// columns are live: nonzero in every mode.
func columnNorms(sub []*mat.Matrix) (norms [][]float64, live []bool) {
	norms = make([][]float64, len(sub))
	for h, u := range sub {
		norms[h] = u.ColumnNorms()
	}
	live = make([]bool, sub[0].Cols)
	for c := range live {
		live[c] = true
		for h := range sub {
			if !(norms[h][c] > 0) {
				live[c] = false
				break
			}
		}
	}
	return norms, live
}

// aligner holds one alignment's settings and scratch.
type aligner struct {
	f      int
	nonneg bool
	cross  []*mat.Matrix // cross[h] = X(h)ᵀY(h) for each shared mode h
	score  []float64     // score[a·f+b] = Σ_{h≠d} |cos| of x's column a and y's b
	src    []int         // src[c]: y's column that lands in column c
	taken  []bool        // taken[b]: y's column b has landed
	best   []int         // the greedy match's per-row cache (see align)
	scale  [][]float64   // scale[h][c]: the factor column c takes in mode h
}

// align returns y's factors with their columns permuted, sign-fixed and
// rescaled against the aligned block x, which differs from y in mode d
// (see alignBlocks). xn, yn are the blocks' column norms and xl, yl their
// live columns.
func (al *aligner) align(x []*mat.Matrix, xn [][]float64, xl []bool, y []*mat.Matrix, yn [][]float64, yl []bool, d int) []*mat.Matrix {
	f := al.f
	for h := range y {
		if h != d {
			mat.TMulInto(al.cross[h], x[h], y[h])
		}
		for c := range f {
			al.scale[h][c] = 1
		}
	}
	for c := range f {
		al.src[c], al.taken[c] = -1, false
		if !yl[c] { // a dead column stays where it is
			al.src[c], al.taken[c] = c, true
		}
	}
	for a := range f {
		for b := range f {
			var score float64
			for h := range y {
				if h != d {
					score += math.Abs(al.cross[h].At(a, b)) / (xn[h][a] * yn[h][b])
				}
			}
			al.score[a*f+b] = score
		}
	}
	// Greedy: the best free pair of a live reference column and a live
	// column of y, the first in (a, b) order on a tie, until none is left.
	// best[a] caches row a's first best free column (-1: none, or a is
	// not free); taking a column re-scans only the rows it was best for.
	for a := range f {
		al.best[a] = -1
		if xl[a] && al.src[a] < 0 {
			al.best[a] = al.rowBest(a, yl)
		}
	}
	for {
		ba := -1
		for a, b := range al.best {
			if b >= 0 && (ba < 0 || al.score[a*f+b] > al.score[ba*f+al.best[ba]]) {
				ba = a
			}
		}
		if ba < 0 {
			break
		}
		bb := al.best[ba]
		al.src[ba], al.taken[bb], al.best[ba] = bb, true, -1
		al.match(ba, bb, xn, yn, d)
		for a, b := range al.best {
			if b == bb {
				al.best[a] = al.rowBest(a, yl)
			}
		}
	}
	// Live columns left unmatched fill the free columns in ascending order.
	b := 0
	for c := range f {
		if al.src[c] >= 0 {
			continue
		}
		for al.taken[b] {
			b++
		}
		al.src[c], al.taken[b] = b, true
	}

	out := make([]*mat.Matrix, len(y))
	perm := al.src[:f]
	for h, u := range y {
		v := mat.New(u.Rows, f)
		scale := al.scale[h][:f]
		for i := 0; i < len(u.Data); i += f {
			src, dst := u.Data[i:i+f], v.Data[i:i+f]
			for c, j := range perm {
				dst[c] = src[j] * scale[c]
			}
		}
		out[h] = v
	}
	return out
}

// match sets the scales that carry y's column b into column a: each
// shared mode to x's norm, its sign flipped where the cosine is negative
// (never under nonneg), and the differing mode d the inverse of their
// product, which flips it too when the count of flips is odd.
func (al *aligner) match(a, b int, xn, yn [][]float64, d int) {
	prod := 1.0
	for h := range al.scale {
		if h == d {
			continue
		}
		s := xn[h][a] / yn[h][b]
		if !al.nonneg && al.cross[h].At(a, b) < 0 {
			s = -s
		}
		al.scale[h][a] = s
		prod *= s
	}
	al.scale[d][a] = 1 / prod
}

// rowBest returns the first of y's free live columns with the best score
// against reference column a, or -1 when none is free.
func (al *aligner) rowBest(a int, yl []bool) int {
	top, bb := -1.0, -1
	for b, s := range al.score[a*al.f : (a+1)*al.f] {
		if yl[b] && !al.taken[b] && s > top {
			top, bb = s, b
		}
	}
	return bb
}
