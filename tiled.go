package twopcp

import (
	"math"

	"twopcp/internal/cpals"
	"twopcp/internal/mat"
	"twopcp/internal/phase1"
	"twopcp/internal/tensor"
	"twopcp/internal/tfile"
)

// DecomposeTiledFile runs the full 2PCP pipeline on a tiled .tptl
// tensor file without ever materializing the tensor: Phase 1 reads
// grid blocks straight from the file (re-tiling on the fly when the
// partition pattern differs from the file tiling) and the final fit is
// accumulated tile by tile, so peak memory is bounded by the larger of
// one tile + one block and the Phase-2 buffer — not the tensor size.
//
// The factors, FitTrace and swap counts are bit-for-bit identical to
// Decompose over the same tensor with the same Options; Fit may differ
// in the last few ulps because the tile-streamed reduction sums in a
// different order.
func DecomposeTiledFile(path string, opts Options) (*Result, error) {
	r, err := tfile.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return decompose(opts, input{
		kind: "tiled", dims: r.Dims(),
		source: func(p *Pattern) (phase1.Source, error) { return phase1.NewTiledSource(r, p) },
		fit: func(m *KTensor, bufs *phase1.Buffers) (float64, error) {
			return streamFit(r, m, opts.Workers, bufs)
		},
	})
}

// SaveTiled writes an in-memory dense tensor as a .tptl tiled file,
// tiles-per-mode per mode (nil picks a tiling automatically). It is a
// convenience for tensors that fit in memory; tensors that do not
// should be written tile by tile with the tfile writer (see
// cmd/tensorgen's streaming generation).
func SaveTiled(path string, t *Dense, tiles []int) error {
	if tiles == nil {
		tiles = tfile.AutoTiles(t.Dims, 0)
	}
	w, err := tfile.Create(path, t.Dims, tiles)
	if err != nil {
		return err
	}
	p := w.Pattern()
	for _, vec := range p.Positions() {
		from, size := p.Block(vec)
		if err := w.WriteTile(vec, t.SubTensor(from, size)); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// LoadTiled materializes a .tptl tiled file as an in-memory dense tensor.
// It is the inverse of SaveTiled for tensors that fit in memory; tensors
// that do not should stay on disk and go through DecomposeTiledFile.
func LoadTiled(path string) (*Dense, error) {
	r, err := tfile.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := NewDense(r.Dims()...)
	tiling := r.Tiling()
	for _, vec := range tiling.Positions() {
		tile, err := r.ReadTile(vec)
		if err != nil {
			return nil, err
		}
		from, size := tiling.Block(vec)
		tensor.CopyRegion(out, from, tile, make([]int, len(size)), size)
	}
	return out, nil
}

// streamFit computes 1 − ‖X−X̂‖/‖X‖ streaming over the file's tiles:
// ‖X‖² and ⟨X,X̂⟩ are additive over tiles when the model factors are
// row-sliced to each tile's extents. The tiles' terms are summed in tile
// order, so the fit is the same at every workers, and each worker reads
// its tiles into one buffer, from bufs when it holds one: a fresh tile per
// read is an allocation burst that sets the run's peak RSS.
func streamFit(r *tfile.Reader, model *KTensor, workers int, bufs *phase1.Buffers) (float64, error) {
	src, err := phase1.NewTiledSource(r, r.Tiling())
	if err != nil {
		return 0, err
	}
	var normX2, inner float64
	err = phase1.Stream(src, workers, nil, bufs, nil,
		func(_ struct{}, _ int, vec []int, read func() (any, error)) ([2]float64, error) {
			b, err := read()
			if err != nil {
				return [2]float64{}, err
			}
			tile := b.(*tensor.Dense)
			// Row-window views: a factor's rows are contiguous, so slicing
			// it to the tile copies nothing.
			from, size := src.P.Block(vec)
			sub := make([]*mat.Matrix, len(model.Factors))
			for m, f := range model.Factors {
				sub[m] = mat.FromSlice(size[m], f.Cols, f.Data[from[m]*f.Cols:][:size[m]*f.Cols])
			}
			subModel := cpals.NewKTensor(sub)
			copy(subModel.Lambda, model.Lambda)
			n := tile.Norm()
			return [2]float64{n * n, subModel.InnerDense(tile)}, nil
		},
		func(_ int, _ []int, t [2]float64) {
			normX2 += t[0]
			inner += t[1]
		})
	if err != nil {
		return 0, err
	}
	normX := math.Sqrt(normX2)
	if normX == 0 {
		return 1, nil
	}
	normModel := model.Norm()
	res2 := normX2 + normModel*normModel - 2*inner
	if res2 < 0 {
		res2 = 0
	}
	return 1 - math.Sqrt(res2)/normX, nil
}
