package twopcp

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"twopcp/internal/cpals"
	"twopcp/internal/mat"
	"twopcp/internal/tfile"
)

// TestTiledFitReusesOneTile: at one worker the fit pass reads every tile
// into one buffer. Over a 27-tile file the whole pass allocates less than
// three tiles' bytes beyond what 27 reads into a tile already held cost
// (nothing but small change with the byte-view float codec, a chunk buffer
// per read with the portable one); a fresh tile per read would add 27
// tiles. Its fit is the in-memory fit up to the summation order.
func TestTiledFitReusesOneTile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := RandomDense(rng, 72, 72, 72)
	path := filepath.Join(t.TempDir(), "x.tptl")
	if err := SaveTiled(path, x, []int{3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	r, err := tfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	model := cpals.NewKTensor([]*mat.Matrix{mat.Random(72, 3, rng), mat.Random(72, 3, rng), mat.Random(72, 3, rng)})
	const tileBytes = 24 * 24 * 24 * 8

	var before, after runtime.MemStats
	allocs := func(f func() error) uint64 {
		t.Helper()
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	tile, err := r.ReadTile([]int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	perRead := allocs(func() error { _, err := r.ReadTileInto(tile, []int{1, 0, 0}); return err })
	var fit float64
	grew := allocs(func() (err error) { fit, err = streamFit(r, model, 1, nil); return err })
	t.Logf("fit pass over 27 tiles of %d bytes allocated %d bytes; one read into a held tile %d", tileBytes, grew, perRead)
	if limit := 3*tileBytes + 27*perRead; grew >= limit {
		t.Fatalf("allocated %d bytes, want < %d (three tiles beyond 27 reads into a held tile)", grew, limit)
	}
	if want := model.Fit(x); math.Abs(fit-want) > 1e-9 {
		t.Fatalf("tiled fit %v, in-memory %v", fit, want)
	}
}

// TestTiledRunHoldsOneBlock: a run over a file whose one block spans eight
// tiles allocates the block and little else. Phase 1 assembles the block
// from the tiles through a chunk of one tile slab, and the fit pass reads
// its tiles into the block's storage, so over the whole run — Phase 1,
// Phase 2 and the fit — everything but the block stays under a quarter
// tile. A whole-tile bounce buffer or a fit-pass tile of its own would
// each add a tile.
func TestTiledRunHoldsOneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	path := filepath.Join(t.TempDir(), "x.tptl")
	if err := SaveTiled(path, RandomDense(rng, 256, 128, 64), []int{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	const blockBytes, tileBytes = 256 * 128 * 64 * 8, 128 * 64 * 32 * 8
	opts := Options{Rank: 2, Partitions: []int{1}, MaxIters: 3, Phase1MaxIters: 3, Seed: 1, Workers: 1}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecomposeTiledFile(path, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("run allocated %d bytes: one block is %d, one tile %d", grew, blockBytes, tileBytes)
	if limit := uint64(blockBytes + tileBytes/4); grew >= limit {
		t.Fatalf("run allocated %d bytes, want < %d (one block plus a quarter tile)", grew, limit)
	}
}
