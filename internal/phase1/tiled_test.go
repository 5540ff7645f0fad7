package phase1

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twopcp/internal/grid"
	"twopcp/internal/tensor"
	"twopcp/internal/tfile"
)

// writeTiled stores x as a .tptl file tiled per tiles and returns an
// open reader.
func writeTiled(t *testing.T, x *tensor.Dense, tiles []int, opts ...tfile.WriterOption) *tfile.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.tptl")
	w, err := tfile.Create(path, x.Dims, tiles, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, vec := range w.Pattern().Positions() {
		from, size := w.Pattern().Block(vec)
		if err := w.WriteTile(vec, x.SubTensor(from, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := tfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestTiledSourceBlocksMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := tensor.RandomDense(rng, 11, 9, 7)
	for _, tc := range []struct {
		name         string
		tiles, parts []int
		opts         []tfile.WriterOption
	}{
		{"same-tiling", []int{2, 3, 2}, []int{2, 3, 2}, nil},
		{"coarsen", []int{4, 3, 4}, []int{2, 1, 2}, nil},
		{"split", []int{2, 1, 2}, []int{4, 3, 4}, nil},
		{"mismatched", []int{3, 2, 3}, []int{2, 3, 2}, nil},
		{"gzip", []int{3, 2, 2}, []int{2, 2, 3}, []tfile.WriterOption{tfile.WithGzip()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := writeTiled(t, x, tc.tiles, tc.opts...)
			p := grid.MustNew(x.Dims, tc.parts)
			src, err := NewTiledSource(r, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, vec := range p.Positions() {
				got, err := src.Block(vec)
				if err != nil {
					t.Fatal(err)
				}
				from, size := p.Block(vec)
				want := x.SubTensor(from, size)
				if !got.(*tensor.Dense).EqualApprox(want, 0) {
					t.Fatalf("block %v differs from in-memory SubTensor", vec)
				}
			}
		})
	}
}

func TestTiledSourceValidation(t *testing.T) {
	x := tensor.RandomDense(rand.New(rand.NewSource(21)), 6, 6)
	r := writeTiled(t, x, []int{2, 2})
	if _, err := NewTiledSource(r, grid.MustNew([]int{6, 6, 6}, []int{2, 2, 2})); err == nil {
		t.Fatal("mode-count mismatch accepted")
	}
	if _, err := NewTiledSource(r, grid.MustNew([]int{6, 5}, []int{2, 1})); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestTiledSourcePhase1Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := tensor.RandomDense(rng, 10, 8, 6)
	p := grid.MustNew(x.Dims, []int{2, 2, 2})
	opts := Options{Rank: 3, MaxIters: 15, Seed: 9, Workers: 4}

	memSrc, err := NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Run(memSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	// File tiling deliberately different from the run partition.
	r := writeTiled(t, x, []int{5, 2, 3})
	tiledSrc, err := NewTiledSource(r, p)
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := Run(tiledSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := range mem.Sub {
		if mem.Fits[id] != tiled.Fits[id] {
			t.Fatalf("block %d fit differs: %g vs %g", id, mem.Fits[id], tiled.Fits[id])
		}
		for m := range mem.Sub[id] {
			if !mem.Sub[id][m].Equal(tiled.Sub[id][m]) {
				t.Fatalf("block %d mode %d sub-factor differs between tiled and dense sources", id, m)
			}
		}
	}
}

// TestTiledSourceBlockReuse: with the run partition equal to the file
// tiling Run's workers read each block into the previous one's storage.
// The tiling here is uneven (mode 0 splits 10 into 4+3+3), so a worker also
// meets a block its last one cannot hold; at every worker count the
// sub-factors must equal the in-memory source's bit for bit. BlockInto
// itself must reuse storage exactly when it can.
func TestTiledSourceBlockReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := tensor.RandomDense(rng, 10, 8, 6)
	p := grid.MustNew(x.Dims, []int{3, 2, 2})
	r := writeTiled(t, x, []int{3, 2, 2})
	src, err := NewTiledSource(r, p)
	if err != nil {
		t.Fatal(err)
	}
	memSrc, err := NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		opts := Options{Rank: 3, MaxIters: 10, Seed: 9, Workers: workers}
		mem, err := Run(memSrc, opts)
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := Run(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		for id := range mem.Sub {
			for m := range mem.Sub[id] {
				if mem.Fits[id] != tiled.Fits[id] || !mem.Sub[id][m].Equal(tiled.Sub[id][m]) {
					t.Fatalf("workers %d block %d mode %d: reused-storage run differs from the in-memory source", workers, id, m)
				}
			}
		}
	}

	first, err := src.Block([]int{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	held := first.(*tensor.Dense)
	same, err := src.BlockInto(held, []int{2, 1, 1}) // another 3x4x3 block
	if err != nil {
		t.Fatal(err)
	}
	from, size := p.Block([]int{2, 1, 1})
	if got := same.(*tensor.Dense); &got.Data[0] != &held.Data[0] || !got.EqualApprox(x.SubTensor(from, size), 0) {
		t.Fatal("BlockInto did not read an equal-sized block into the storage it was handed")
	}
	other, err := src.BlockInto(held, []int{0, 0, 0}) // 4x4x3: does not fit
	if err != nil {
		t.Fatal(err)
	}
	from, size = p.Block([]int{0, 0, 0})
	if got := other.(*tensor.Dense); &got.Data[0] == &held.Data[0] || !got.EqualApprox(x.SubTensor(from, size), 0) {
		t.Fatal("BlockInto of a differently sized block must allocate")
	}
	// A partition that is not the file tiling assembles blocks from several
	// tiles and leaves the offered storage alone.
	coarse, err := NewTiledSource(r, grid.MustNew(x.Dims, []int{1, 2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	keep := held.Clone()
	if _, err := coarse.BlockInto(held, []int{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if !held.EqualApprox(keep, 0) {
		t.Fatal("BlockInto wrote into a buffer it cannot use")
	}
}

func TestGridCover(t *testing.T) {
	p := grid.MustNew([]int{10}, []int{3}) // ranges [0,4) [4,7) [7,10)
	for _, tc := range []struct {
		from, size, lo, hi int
	}{
		{0, 10, 0, 3},
		{0, 4, 0, 1},
		{4, 3, 1, 2},
		{3, 2, 0, 2},
		{6, 2, 1, 3},
		{9, 1, 2, 3},
	} {
		lo, hi := p.Cover(0, tc.from, tc.size)
		if lo != tc.lo || hi != tc.hi {
			t.Fatalf("Cover(0, %d, %d) = [%d,%d), want [%d,%d)",
				tc.from, tc.size, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestCopyRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src := tensor.RandomDense(rng, 5, 4, 3)
	dst := tensor.NewDense(6, 6, 6)
	tensor.CopyRegion(dst, []int{1, 2, 3}, src, []int{2, 1, 0}, []int{3, 2, 2})
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				if dst.At(1+i, 2+j, 3+k) != src.At(2+i, 1+j, 0+k) {
					t.Fatalf("cell (%d,%d,%d) not copied", i, j, k)
				}
			}
		}
	}
	if nnz := dst.NNZ(); nnz != 3*2*2 {
		t.Fatalf("CopyRegion wrote outside the region: nnz = %d", nnz)
	}
}

// TestTiledSourceRetiledBlockReuse: when the partition coarsens the file
// tiling, BlockInto still reads into the storage it is handed if the cell
// count matches, and the covering tiles overwrite every cell — the NaNs
// left in the buffer must all be gone.
func TestTiledSourceRetiledBlockReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	x := tensor.RandomDense(rng, 12, 8, 6)
	p := grid.MustNew(x.Dims, []int{2, 2, 1}) // four 6x4x6 blocks
	r := writeTiled(t, x, []int{4, 2, 3})
	src, err := NewTiledSource(r, p)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.BlockInto(nil, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	held := first.(*tensor.Dense)
	for i := range held.Data {
		held.Data[i] = math.NaN()
	}
	second, err := src.BlockInto(held, []int{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mem.Block([]int{1, 1, 0})
	got := second.(*tensor.Dense)
	if &got.Data[0] != &held.Data[0] {
		t.Fatal("a re-tiled block of the same cell count did not reuse the storage it was handed")
	}
	for i, v := range want.(*tensor.Dense).Data {
		if got.Data[i] != v { // a NaN left behind fails too
			t.Fatalf("cell %d of the re-tiled block is %v, DenseSource has %v", i, got.Data[i], v)
		}
	}
}

// TestTiledSourceChunkedRetiling: a re-tiled block streams each covering
// tile through a chunk of whole mode-0 runs and scatters it into place.
// The 520×260 slabs here are over 1 MiB, so a tile takes two chunks, the
// second short; the 2-mode file has one-run chunks. Every block must equal
// DenseSource's.
func TestTiledSourceChunkedRetiling(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		dims, tiles, parts []int
	}{
		{[]int{520, 260, 2}, []int{1, 1, 2}, []int{2, 1, 1}},
		{[]int{9, 7}, []int{2, 3}, []int{3, 2}},
	} {
		x := tensor.RandomDense(rng, tc.dims...)
		r := writeTiled(t, x, tc.tiles)
		p := grid.MustNew(x.Dims, tc.parts)
		src, err := NewTiledSource(r, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, vec := range p.Positions() {
			got, err := src.Block(vec)
			if err != nil {
				t.Fatal(err)
			}
			from, size := p.Block(vec)
			if !got.(*tensor.Dense).EqualApprox(x.SubTensor(from, size), 0) {
				t.Fatalf("dims %v tiles %v: block %v differs from the tensor's", tc.dims, tc.tiles, vec)
			}
		}
	}
}

// TestTiledSourceRetiledCRC: a damaged payload byte in one covering tile
// fails the re-tiled read with the tile's CRC mismatch, not a block.
func TestTiledSourceRetiledCRC(t *testing.T) {
	x := tensor.RandomDense(rand.New(rand.NewSource(37)), 8, 6, 4)
	path := filepath.Join(t.TempDir(), "x.tptl")
	w, err := tfile.Create(path, x.Dims, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, vec := range w.Pattern().Positions() {
		from, size := w.Pattern().Block(vec)
		if err := w.WriteTile(vec, x.SubTensor(from, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40 // a cell of the last tile written
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := tfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src, err := NewTiledSource(r, grid.MustNew(x.Dims, []int{1, 1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := src.Block([]int{0, 0, 0}); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("re-tiled read of a damaged file returned %v, %v; want a CRC mismatch", b != nil, err)
	}
}
