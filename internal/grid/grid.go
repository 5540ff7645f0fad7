// Package grid implements the block-partitioning substrate of 2PCP: the
// pattern K that cuts an N-mode tensor into a grid of sub-tensors, index
// arithmetic between block vectors and linear block ids, and slab
// enumeration (all blocks sharing one mode partition), which drives both
// phases of the decomposition.
package grid

import (
	"fmt"
	"slices"
)

// Pattern describes how an N-mode tensor of the given Dims is partitioned:
// mode i is split into K[i] near-equal ranges. When K[i] does not divide
// Dims[i], the first Dims[i] mod K[i] partitions are one element longer,
// mirroring the usual chunked-array convention.
type Pattern struct {
	Dims []int // tensor mode sizes I_1..I_N
	K    []int // partitions per mode K_1..K_N
}

// New validates and builds a Pattern. Every K[i] must be in [1, Dims[i]].
func New(dims, k []int) (*Pattern, error) {
	if len(dims) != len(k) {
		return nil, fmt.Errorf("grid: %d dims but %d partition counts", len(dims), len(k))
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("grid: empty pattern")
	}
	for i := range dims {
		if dims[i] <= 0 {
			return nil, fmt.Errorf("grid: mode %d has size %d", i, dims[i])
		}
		if k[i] <= 0 || k[i] > dims[i] {
			return nil, fmt.Errorf("grid: mode %d: %d partitions of size-%d mode", i, k[i], dims[i])
		}
	}
	return &Pattern{
		Dims: append([]int(nil), dims...),
		K:    append([]int(nil), k...),
	}, nil
}

// MustNew is New, panicking on error; for tests and literals.
func MustNew(dims, k []int) *Pattern {
	p, err := New(dims, k)
	if err != nil {
		panic(err)
	}
	return p
}

// NModes returns the number of tensor modes.
func (p *Pattern) NModes() int { return len(p.Dims) }

// NumBlocks returns |K| = Π K_i, the total number of blocks.
func (p *Pattern) NumBlocks() int {
	n := 1
	for _, k := range p.K {
		n *= k
	}
	return n
}

// SumK returns Σ K_i, the paper's virtual-iteration length (Definition 3)
// and the number of distinct mode-partition data units.
func (p *Pattern) SumK() int {
	s := 0
	for _, k := range p.K {
		s += k
	}
	return s
}

// ModeRange returns the half-open row range [from, from+size) that
// partition ki covers along mode i.
func (p *Pattern) ModeRange(i, ki int) (from, size int) {
	if i < 0 || i >= len(p.Dims) || ki < 0 || ki >= p.K[i] {
		panic(fmt.Sprintf("grid: ModeRange(%d, %d) of pattern %v/%v", i, ki, p.Dims, p.K))
	}
	base := p.Dims[i] / p.K[i]
	rem := p.Dims[i] % p.K[i]
	if ki < rem {
		return ki * (base + 1), base + 1
	}
	return rem*(base+1) + (ki-rem)*base, base
}

// Block returns the origin and size of the block at position vec.
func (p *Pattern) Block(vec []int) (from, size []int) {
	if len(vec) != len(p.Dims) {
		panic(fmt.Sprintf("grid: Block(%v) of %d-mode pattern", vec, len(p.Dims)))
	}
	from = make([]int, len(vec))
	size = make([]int, len(vec))
	for i, ki := range vec {
		from[i], size[i] = p.ModeRange(i, ki)
	}
	return from, size
}

// Linear converts a block position vector to a linear block id in
// Fortran order (mode 0 fastest), consistent with tensor.Dense layout.
func (p *Pattern) Linear(vec []int) int {
	if len(vec) != len(p.K) {
		panic(fmt.Sprintf("grid: Linear(%v) of %d-mode pattern", vec, len(p.K)))
	}
	id, stride := 0, 1
	for i, ki := range vec {
		if ki < 0 || ki >= p.K[i] {
			panic(fmt.Sprintf("grid: Linear(%v) out of range %v", vec, p.K))
		}
		id += ki * stride
		stride *= p.K[i]
	}
	return id
}

// Unlinear converts a linear block id back to a position vector, filling
// dst if non-nil.
func (p *Pattern) Unlinear(id int, dst []int) []int {
	if id < 0 || id >= p.NumBlocks() {
		panic(fmt.Sprintf("grid: Unlinear(%d) of %d blocks", id, p.NumBlocks()))
	}
	if dst == nil {
		dst = make([]int, len(p.K))
	}
	for i, k := range p.K {
		dst[i] = id % k
		id /= k
	}
	return dst
}

// Positions returns every block position vector in linear (Fortran) order.
func (p *Pattern) Positions() [][]int {
	out := make([][]int, p.NumBlocks())
	for id := range out {
		out[id] = p.Unlinear(id, nil)
	}
	return out
}

// SlabSize returns the number of blocks in the mode-i slab
// [*,..,*,ki,*,..,*], i.e. Π_{j≠i} K_j (the same for every ki).
func (p *Pattern) SlabSize(i int) int {
	n := 1
	for j, k := range p.K {
		if j != i {
			n *= k
		}
	}
	return n
}

// Slab returns the linear ids of all blocks whose mode-i coordinate is ki.
func (p *Pattern) Slab(i, ki int) []int {
	if i < 0 || i >= len(p.K) || ki < 0 || ki >= p.K[i] {
		panic(fmt.Sprintf("grid: Slab(%d, %d) of pattern %v", i, ki, p.K))
	}
	out := make([]int, 0, p.SlabSize(i))
	vec := make([]int, len(p.K))
	vec[i] = ki
	for {
		out = append(out, p.Linear(vec))
		// Advance all coordinates except i.
		j := 0
		for ; j < len(p.K); j++ {
			if j == i {
				continue
			}
			vec[j]++
			if vec[j] < p.K[j] {
				break
			}
			vec[j] = 0
		}
		if j == len(p.K) {
			return out
		}
	}
}

// Cover returns the half-open partition index range [lo, hi) of mode i
// whose ranges intersect the row interval [from, from+size). It is the
// re-tiling primitive: a block of one pattern maps to the tiles
// Cover selects in another pattern over the same dims.
func (p *Pattern) Cover(i, from, size int) (lo, hi int) {
	if i < 0 || i >= len(p.Dims) || from < 0 || size <= 0 || from+size > p.Dims[i] {
		panic(fmt.Sprintf("grid: Cover(%d, %d, %d) of pattern %v", i, from, size, p.Dims))
	}
	lo, hi = -1, -1
	for ki := 0; ki < p.K[i]; ki++ {
		f, s := p.ModeRange(i, ki)
		if f+s <= from {
			continue
		}
		if f >= from+size {
			break
		}
		if lo < 0 {
			lo = ki
		}
		hi = ki + 1
	}
	return lo, hi
}

// Equal reports whether two patterns are identical.
func (p *Pattern) Equal(q *Pattern) bool {
	return slices.Equal(p.Dims, q.Dims) && slices.Equal(p.K, q.K)
}

// String formats the pattern as "dims/K".
func (p *Pattern) String() string {
	return fmt.Sprintf("grid%v/%v", p.Dims, p.K)
}

// UniformCube is a convenience constructor for the paper's experiments: an
// N-mode cube of side dim partitioned k ways per mode.
func UniformCube(nModes, dim, k int) *Pattern {
	dims := make([]int, nModes)
	ks := make([]int, nModes)
	for i := range dims {
		dims[i] = dim
		ks[i] = k
	}
	return MustNew(dims, ks)
}
