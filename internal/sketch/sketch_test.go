package sketch

import (
	"math/rand"
	"testing"

	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/phase1"
	"twopcp/internal/tensor"
)

// lowMLRankTensor builds a dims tensor of exact multilinear rank r per
// mode: a random r×r×...×r core multiplied by per-mode orthonormal
// factors.
func lowMLRankTensor(t *testing.T, dims []int, r int, seed int64) *tensor.Dense {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coreDims := make([]int, len(dims))
	for k := range coreDims {
		coreDims[k] = r
	}
	core := tensor.NewDense(coreDims...)
	for i := range core.Data {
		core.Data[i] = rng.NormFloat64()
	}
	ms := make([]*mat.Matrix, len(dims))
	for k, d := range dims {
		ms[k] = mat.QRThin(mat.RandomNormal(d, r, rng))
	}
	return tensor.TTMChain(core, ms)
}

func denseSource(t *testing.T, x *tensor.Dense, k []int) *phase1.DenseSource {
	t.Helper()
	p, err := grid.New(x.Dims, k)
	if err != nil {
		t.Fatal(err)
	}
	src, err := phase1.NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// The warm start from a genuinely low-multilinear-rank tensor must
// already fit it well: CP on the compressed core sees (almost) all of
// the tensor's energy because the sketched bases capture its range.
func TestTuckerWarmStartRecoversLowMLRank(t *testing.T) {
	x := lowMLRankTensor(t, []int{24, 20, 22}, 3, 7)
	src := denseSource(t, x, []int{2, 2, 2})
	res, err := TuckerWarmStart(src, Options{Rank: 3, CPRank: 4, Seed: 11, MaxIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatalf("unexpected fallback: %s", res.Reason)
	}
	for k, f := range res.Init {
		if f.Rows != x.Dims[k] || f.Cols != 4 {
			t.Fatalf("init factor %d is %d×%d", k, f.Rows, f.Cols)
		}
	}
	kt := cpals.NewKTensor(res.Init)
	if fit := kt.Fit(x); fit < 0.7 {
		t.Fatalf("warm-start fit %g, want ≥ 0.7 on a low-mlrank input (core fit %g)", fit, res.CoreFit)
	}
	if res.CoreFit < 0.7 {
		t.Fatalf("core fit %g", res.CoreFit)
	}
}

// The sketch must agree between dense and COO sources over the same
// tensor — the block contributions are accumulated identically.
func TestTuckerWarmStartDenseSparseAgree(t *testing.T) {
	x := lowMLRankTensor(t, []int{18, 16, 14}, 2, 3)
	p := grid.MustNew(x.Dims, []int{2, 2, 2})
	ds, err := phase1.NewDenseSource(x, p)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := phase1.NewCOOSource(tensor.FromDense(x), p)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rank: 2, CPRank: 3, Seed: 5}
	a, err := TuckerWarmStart(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TuckerWarmStart(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fallback || b.Fallback {
		t.Fatalf("fallback: %v / %v", a.Reason, b.Reason)
	}
	for k := range a.Init {
		if !a.Init[k].EqualApprox(b.Init[k], 1e-9) {
			t.Fatalf("mode-%d warm start differs between dense and COO sources", k)
		}
	}
}

// Same seed → bit-identical warm start at any worker count (the blocks'
// contributions merge in block-id order); different seed → different one.
func TestTuckerWarmStartDeterministic(t *testing.T) {
	x := lowMLRankTensor(t, []int{16, 16, 16}, 2, 9)
	src := denseSource(t, x, []int{2, 1, 2})
	opts := Options{Rank: 2, CPRank: 3, Seed: 21, Workers: 1}
	a, err := TuckerWarmStart(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	b, err := TuckerWarmStart(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Init {
		if !a.Init[k].Equal(b.Init[k]) {
			t.Fatalf("mode-%d warm start is not bit-deterministic", k)
		}
	}
	opts.Seed = 22
	c, err := TuckerWarmStart(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := range a.Init {
		same = same && a.Init[k].Equal(c.Init[k])
	}
	if same {
		t.Fatal("different seeds produced identical warm starts")
	}
}

// Partitioning must not change the sketch: the per-block accumulation
// is exact, so 1-block and multi-block patterns give the same bits.
func TestTuckerWarmStartPatternInvariant(t *testing.T) {
	x := lowMLRankTensor(t, []int{12, 12, 12}, 2, 13)
	opts := Options{Rank: 2, CPRank: 2, Seed: 4}
	one, err := TuckerWarmStart(denseSource(t, x, []int{1, 1, 1}), opts)
	if err != nil {
		t.Fatal(err)
	}
	many, err := TuckerWarmStart(denseSource(t, x, []int{3, 2, 2}), opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range one.Init {
		// Accumulation order differs between patterns (per-row sums are
		// regrouped), so allow rounding differences but nothing more.
		if !one.Init[k].EqualApprox(many.Init[k], 1e-9) {
			t.Fatalf("mode-%d warm start depends on the partition pattern", k)
		}
	}
}

// NN-preserving expansion: nonneg warm starts have no negative entries.
func TestTuckerWarmStartNonneg(t *testing.T) {
	x := lowMLRankTensor(t, []int{16, 14, 12}, 2, 17)
	// Shift positive so a nonneg model is meaningful.
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = -v
		}
	}
	src := denseSource(t, x, []int{2, 2, 1})
	res, err := TuckerWarmStart(src, Options{Rank: 3, CPRank: 3, Seed: 2, Nonneg: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatalf("unexpected fallback: %s", res.Reason)
	}
	for k, f := range res.Init {
		for _, v := range f.Data {
			if v < 0 {
				t.Fatalf("mode %d: negative warm-start entry %g", k, v)
			}
		}
	}
}

// countingSource counts the blocks read through it.
type countingSource struct {
	phase1.Source
	reads int
}

func (c *countingSource) Block(vec []int) (any, error) {
	c.reads++
	return c.Source.Block(vec)
}

// Structural fallback: when the core wouldn't be meaningfully smaller
// than the tensor, Phase 0 declines without reading a single block.
func TestTuckerWarmStartStructuralFallback(t *testing.T) {
	x := tensor.RandomDense(rand.New(rand.NewSource(1)), 6, 6, 6)
	src := &countingSource{Source: denseSource(t, x, []int{1, 1, 1})}
	res, err := TuckerWarmStart(src, Options{Rank: 6, CPRank: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatal("expected structural fallback for rank ≥ dims")
	}
	if res.Init != nil {
		t.Fatal("fallback result carries factors")
	}
	if src.reads != 0 {
		t.Fatalf("structural fallback read %d blocks, want 0", src.reads)
	}
}

// Zero tensors fall back rather than feeding a zero core to ALS.
func TestTuckerWarmStartZeroFallback(t *testing.T) {
	x := tensor.NewDense(20, 20, 20)
	src := denseSource(t, x, []int{2, 2, 2})
	res, err := TuckerWarmStart(src, Options{Rank: 2, CPRank: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatal("expected fallback on the zero tensor")
	}
}

func TestTuckerWarmStartBadOptions(t *testing.T) {
	x := tensor.RandomDense(rand.New(rand.NewSource(1)), 8, 8, 8)
	src := denseSource(t, x, []int{1, 1, 1})
	if _, err := TuckerWarmStart(src, Options{Rank: 0, CPRank: 2}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := TuckerWarmStart(src, Options{Rank: 2, CPRank: 0}); err == nil {
		t.Fatal("CP rank 0 accepted")
	}
	if _, err := TuckerWarmStart(src, Options{Rank: 2, CPRank: 2, Oversample: -1}); err == nil {
		t.Fatal("negative oversample accepted")
	}
}
