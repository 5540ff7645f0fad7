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
// (coarsening or splitting the tiling on the fly), holding at most one
// file tile plus the output block in memory at a time. Blocks carry
// exactly the same cell values as DenseSource over the same tensor, so
// the decomposition downstream is bit-for-bit identical.
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

// BlockInto is Block reading into the storage of buf — a block this source
// returned earlier and the caller is done with — when buf has the block's
// cell count; otherwise buf is ignored. Stream's workers find the method by
// type assertion and hand each block back for the next, so a pass over the
// file allocates one block per worker whether or not it re-tiles.
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
	srcFrom := make([]int, n)
	dstFrom := make([]int, n)
	span := make([]int, n)
	var tile *tensor.Dense // one file tile at a time, in one buffer
	for {
		var err error
		tile, err = s.R.ReadTileInto(tile, tvec)
		if err != nil {
			return nil, err
		}
		// Intersection of the block with this tile, in tile-local
		// (srcFrom) and block-local (dstFrom) coordinates.
		for i, ti := range tvec {
			tFrom, tSize := tiling.ModeRange(i, ti)
			a := max(from[i], tFrom)
			b := min(from[i]+size[i], tFrom+tSize)
			srcFrom[i] = a - tFrom
			dstFrom[i] = a - from[i]
			span[i] = b - a
		}
		tensor.CopyRegion(out, dstFrom, tile, srcFrom, span)
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
