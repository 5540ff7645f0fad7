package phase1

import (
	"fmt"
	"slices"

	"twopcp/internal/grid"
	"twopcp/internal/tensor"
	"twopcp/internal/tfile"
)

// TiledSource serves grid blocks straight from a .tptl tiled tensor
// file — the out-of-core Phase-1 input path. When the run's partition
// pattern matches the file tiling, every Block is a single tile read;
// otherwise the block is assembled from the file tiles it intersects
// (coarsening or splitting the tiling on the fly), each streamed through
// one bounded chunk of whole mode-0 runs — at most one mode-(N−1) slab of
// the tile or 1 MiB — and scattered straight into the block. A read holds
// the block and that chunk, never a whole file tile besides. Blocks carry
// exactly the same cell values as DenseSource over the same tensor, so the
// decomposition downstream is bit-for-bit identical.
//
// TiledSource is safe for concurrent Block calls (the underlying
// Reader reads via io.ReaderAt), which Stream's workers rely on.
type TiledSource struct {
	R *tfile.Reader
	P *grid.Pattern
}

// NewTiledSource validates that the pattern matches the file's tensor
// shape.
func NewTiledSource(r *tfile.Reader, p *grid.Pattern) (*TiledSource, error) {
	if dims := r.Dims(); !slices.Equal(dims, p.Dims) {
		return nil, fmt.Errorf("phase1: tiled file dims %v do not match pattern dims %v", dims, p.Dims)
	}
	return &TiledSource{R: r, P: p}, nil
}

// Pattern implements Source.
func (s *TiledSource) Pattern() *grid.Pattern { return s.P }

// Block implements Source.
func (s *TiledSource) Block(vec []int) (any, error) { return s.BlockInto(nil, vec) }

// BlockInto is Block reading into the storage of buf — a block this or
// another source returned earlier and the caller is done with — when buf
// has room for the block's cells; otherwise buf is ignored. Stream's
// workers find the method by type assertion and hand each block back for
// the next, so a pass over the file allocates one block per worker whether
// or not it re-tiles, and none when the run lends it buffers.
func (s *TiledSource) BlockInto(buf any, vec []int) (any, error) {
	prev, _ := buf.(*tensor.Dense)
	tiling := s.R.Tiling()
	if s.P.Equal(tiling) {
		return s.R.ReadTileInto(prev, vec)
	}
	from, size := s.P.Block(vec)
	n := len(from)
	// The covering tiles' intersections write every cell, so reused
	// storage needs no clearing.
	out := tensor.Reuse(prev, size...)
	// Per-mode ranges of file tiles the block intersects.
	lo := make([]int, n)
	hi := make([]int, n)
	for i := range from {
		lo[i], hi[i] = tiling.Cover(i, from[i], size[i])
	}
	tvec := append([]int(nil), lo...)
	sc := scatter{block: out, srcFrom: make([]int, n), span: make([]int, n)}
	var chunk []float64
	for {
		// Intersection of the block with this tile, in tile-local
		// (srcFrom) coordinates, and where it starts in the block.
		var tFrom []int
		tFrom, sc.tile = tiling.Block(tvec)
		sc.base = 0
		for i, stride := 0, 1; i < n; i++ {
			a := max(from[i], tFrom[i])
			b := min(from[i]+size[i], tFrom[i]+sc.tile[i])
			sc.srcFrom[i] = a - tFrom[i]
			sc.span[i] = b - a
			sc.base += (a - from[i]) * stride
			stride *= size[i]
		}
		chunk = chunkFor(chunk, sc.tile)
		if err := s.R.StreamTile(tvec, chunk, sc.fill); err != nil {
			return nil, err
		}
		// Advance tvec through the [lo, hi) box, mode 0 fastest.
		i := 0
		for ; i < n; i++ {
			tvec[i]++
			if tvec[i] < hi[i] {
				break
			}
			tvec[i] = lo[i]
		}
		if i == n {
			return out, nil
		}
	}
}

// maxChunkCells bounds the chunk a re-tiled block streams a tile through:
// 1 MiB of cells.
const maxChunkCells = 1 << 20 / 8

// chunkFor returns a chunk of whole mode-0 runs of a tile of the given
// extents, at most one mode-(N−1) slab and maxChunkCells but never less
// than one run, reusing buf's storage when it has room.
func chunkFor(buf []float64, tile []int) []float64 {
	run, slab := tile[0], 1
	for _, d := range tile[:len(tile)-1] {
		slab *= d
	}
	cells := max(run, min(slab, maxChunkCells)/run*run)
	if cap(buf) < cells {
		return make([]float64, cells)
	}
	return buf[:cells]
}

// scatter copies the cells of one file tile that fall inside a block,
// chunk by chunk of whole mode-0 runs, straight to their place in the
// block.
type scatter struct {
	block         *tensor.Dense
	tile          []int // the tile's extents
	srcFrom, span []int // the intersection, tile-local
	base          int   // block-linear index of the intersection's first cell
}

// fill is the StreamTile callback: off is the tile-linear index of
// cells[0], a multiple of the mode-0 run length.
func (sc *scatter) fill(off int, cells []float64) {
	run := sc.tile[0]
	lo, span := sc.srcFrom[0], sc.span[0]
	for r := 0; r*run < len(cells); r++ {
		// The run's tile-local index in modes 1..N−1 picks its block row.
		dst, rest := sc.base, off/run+r
		inside := true
		for i, stride := 1, sc.block.Dims[0]; i < len(sc.tile); i++ {
			k := rest%sc.tile[i] - sc.srcFrom[i]
			rest /= sc.tile[i]
			if k < 0 || k >= sc.span[i] {
				inside = false
				break
			}
			dst += k * stride
			stride *= sc.block.Dims[i]
		}
		if inside {
			copy(sc.block.Data[dst:dst+span], cells[r*run+lo:])
		}
	}
}
