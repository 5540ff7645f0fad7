package tfile

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twopcp/internal/grid"
	"twopcp/internal/tensor"
)

// writeTensor tiles x per the pattern and writes every tile, in the
// given order of linear tile ids.
func writeTensor(t *testing.T, path string, x *tensor.Dense, tiles []int, order []int, opts ...WriterOption) {
	t.Helper()
	w, err := Create(path, x.Dims, tiles, opts...)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Pattern()
	if order == nil {
		order = make([]int, p.NumBlocks())
		for i := range order {
			order[i] = i
		}
	}
	for _, id := range order {
		vec := p.Unlinear(id, nil)
		from, size := p.Block(vec)
		if err := w.WriteTile(vec, x.SubTensor(from, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// readBack reassembles the full tensor from a .tptl file.
func readBack(t *testing.T, path string) *tensor.Dense {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := tensor.NewDense(r.Dims()...)
	p := r.Tiling()
	// One tile buffer handed back on every read: equal-sized tiles reuse
	// it, ragged ones replace it.
	var tile *tensor.Dense
	for _, vec := range p.Positions() {
		tile, err = r.ReadTileInto(tile, vec)
		if err != nil {
			t.Fatal(err)
		}
		from, size := p.Block(vec)
		for m, d := range size {
			if tile.Dims[m] != d {
				t.Fatalf("tile %v has dims %v, want %v", vec, tile.Dims, size)
			}
		}
		out.SetSubTensor(tile, from)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomDense(rng, 9, 7, 5)
	for _, tc := range []struct {
		name  string
		tiles []int
		opts  []WriterOption
	}{
		{"single-tile", []int{1, 1, 1}, nil},
		{"even", []int{3, 1, 5}, nil},
		{"ragged", []int{2, 3, 2}, nil},
		{"gzip", []int{2, 2, 2}, []WriterOption{WithGzip()}},
		{"no-crc", []int{2, 2, 2}, []WriterOption{WithoutCRC()}},
		{"gzip-no-crc", []int{2, 2, 2}, []WriterOption{WithGzip(), WithoutCRC()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.tptl")
			writeTensor(t, path, x, tc.tiles, nil, tc.opts...)
			got := readBack(t, path)
			if !got.EqualApprox(x, 0) {
				t.Fatal("round trip changed cell values")
			}
		})
	}
}

// TestReadTileIntoReusesStorage: a buffer with the tile's cell count is
// filled in place and returned; any other buffer is left alone and
// replaced.
func TestReadTileIntoReusesStorage(t *testing.T) {
	x := tensor.RandomDense(rand.New(rand.NewSource(3)), 8, 6, 4)
	path := filepath.Join(t.TempDir(), "x.tptl")
	writeTensor(t, path, x, []int{2, 2, 2}, nil)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf, err := r.ReadTile([]int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.ReadTile([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadTileInto(buf, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != buf || !got.EqualApprox(want, 0) {
		t.Fatal("equal-sized buffer was not refilled in place with the tile's cells")
	}
	small := tensor.NewDense(2, 2)
	got, err = r.ReadTileInto(small, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got == small || len(got.Data) != 4*3*2 {
		t.Fatalf("mis-sized buffer not replaced: %v", got.Dims)
	}
}

func TestWriterAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandomDense(rng, 8, 8, 8)
	p := grid.MustNew([]int{8, 8, 8}, []int{2, 2, 2})
	order := rng.Perm(p.NumBlocks())
	path := filepath.Join(t.TempDir(), "x.tptl")
	writeTensor(t, path, x, []int{2, 2, 2}, order)
	if got := readBack(t, path); !got.EqualApprox(x, 0) {
		t.Fatal("out-of-order write corrupted the tensor")
	}
}

func TestWriterRejectsDuplicateWrongAndMissingTiles(t *testing.T) {
	dir := t.TempDir()
	x := tensor.RandomDense(rand.New(rand.NewSource(3)), 4, 4)

	w, err := Create(filepath.Join(dir, "dup.tptl"), []int{4, 4}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	tile := x.SubTensor([]int{0, 0}, []int{2, 2})
	if err := w.WriteTile([]int{0, 0}, tile); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTile([]int{0, 0}, tile); err == nil {
		t.Fatal("duplicate tile accepted")
	}
	if err := w.WriteTile([]int{1, 0}, x.SubTensor([]int{0, 0}, []int{1, 2})); err == nil {
		t.Fatal("wrong-shaped tile accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close with missing tiles succeeded")
	}
}

func TestReaderRejectsCorruptHeaders(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tptl")
	x := tensor.RandomDense(rand.New(rand.NewSource(4)), 6, 6)
	writeTensor(t, path, x, []int{2, 2}, nil)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := mutate(append([]byte(nil), good...))
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(p); err == nil {
			r.Close()
			t.Fatalf("%s: corrupt header accepted", name)
		}
	}
	corrupt("magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("version", func(b []byte) []byte { b[4] = 99; return b })
	corrupt("flags", func(b []byte) []byte { b[8] = 0x80; return b })
	corrupt("modes", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 0); return b })
	corrupt("huge-dim", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[16:], 1<<60)
		return b
	})
	corrupt("bad-tiling", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[16+16:], 7) // 7 tiles of a size-6 mode
		return b
	})
	corrupt("index-offset", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[headerSize(2):], 1<<50)
		return b
	})
	corrupt("index-size", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[headerSize(2)+8:], uint64(len(b)))
		return b
	})
	corrupt("truncated", func(b []byte) []byte { return b[:headerSize(2)+4] })
}

func TestReaderDetectsPayloadCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tptl")
	x := tensor.RandomDense(rand.New(rand.NewSource(5)), 6, 6)
	writeTensor(t, path, x, []int{2, 2}, nil)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xff // flip a byte inside the last tile's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadTile([]int{1, 1}); err == nil {
		t.Fatal("flipped payload byte not caught by CRC")
	}
	// Other tiles stay readable.
	if _, err := r.ReadTile([]int{0, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderDetectsGzipCorruptionWithoutCRC(t *testing.T) {
	// With per-tile CRCs disabled, gzip's own trailer checksum is the
	// only integrity layer: the reader must drain to the trailer and
	// let it fire.
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tptl")
	x := tensor.RandomDense(rand.New(rand.NewSource(7)), 8, 8)
	writeTensor(t, path, x, []int{1, 1}, nil, WithGzip(), WithoutCRC())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the (single) tile's deflate stream.
	b[len(b)-20] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadTile([]int{0, 0}); err == nil {
		t.Fatal("corrupt gzip payload decoded silently")
	}
}

func TestReaderConcurrentTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandomDense(rng, 12, 12, 12)
	path := filepath.Join(t.TempDir(), "x.tptl")
	writeTensor(t, path, x, []int{3, 3, 3}, nil)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p := r.Tiling()
	errs := make(chan error, p.NumBlocks())
	for _, vec := range p.Positions() {
		vec := vec
		go func() {
			tile, err := r.ReadTile(vec)
			if err == nil {
				from, size := p.Block(vec)
				want := x.SubTensor(from, size)
				if !tile.EqualApprox(want, 0) {
					err = os.ErrInvalid
				}
			}
			errs <- err
		}()
	}
	for range p.Positions() {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAutoTiles(t *testing.T) {
	for _, tc := range []struct {
		dims []int
		max  int
	}{
		{[]int{10, 10, 10}, 1000},
		{[]int{100, 3, 7}, 50},
		{[]int{1, 1, 1}, 1},
		{[]int{64, 64, 64}, 0}, // default bound: single tile
	} {
		tiles := AutoTiles(tc.dims, tc.max)
		p, err := grid.New(tc.dims, tiles)
		if err != nil {
			t.Fatalf("AutoTiles(%v, %d) = %v: %v", tc.dims, tc.max, tiles, err)
		}
		maxE := tc.max
		if maxE <= 0 {
			maxE = 1 << 22
		}
		for _, vec := range p.Positions() {
			_, size := p.Block(vec)
			elems := 1
			for _, s := range size {
				elems *= s
			}
			if elems > maxE && !fullySplit(tc.dims, tiles) {
				t.Fatalf("AutoTiles(%v, %d) = %v: tile %v has %d cells", tc.dims, tc.max, tiles, vec, elems)
			}
		}
	}
}

func fullySplit(dims, tiles []int) bool {
	for i := range dims {
		if tiles[i] != dims[i] {
			return false
		}
	}
	return true
}

func TestWriterRejectsImplausibleDims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tptl")
	for _, tc := range []struct {
		dims []int
		what string
	}{
		{[]int{1 << 21, 1 << 21, 1 << 21}, "2^63 cells"},
		{[]int{0, 4}, "zero dim"},
	} {
		tiles := make([]int, len(tc.dims))
		for i := range tiles {
			tiles[i] = 1
		}
		if w, err := Create(path, tc.dims, tiles); err == nil {
			w.Close()
			t.Fatalf("%s accepted", tc.what)
		}
	}
	x := tensor.RandomDense(rand.New(rand.NewSource(6)), 3, 4, 5)
	writeTensor(t, path, x, []int{1, 1, 1}, nil)
	if got := readBack(t, path); len(got.Data) != 60 || !got.EqualApprox(x, 0) {
		t.Fatalf("3×4×5 read back as %v with %d cells", got.Dims, len(got.Data))
	}
}
