package cpals

import (
	"math/rand"
	"testing"

	"twopcp/internal/mat"
	"twopcp/internal/par"
	"twopcp/internal/tensor"
)

// TestWorkspaceReuseIsBitNeutral pins the workspace contract: reusing one
// workspace across decompositions of different shapes and ranks yields
// exactly the results of fresh runs.
func TestWorkspaceReuseIsBitNeutral(t *testing.T) {
	ws := NewWorkspace()
	cases := []struct {
		dims []int
		rank int
	}{
		{[]int{12, 10, 8}, 4},
		{[]int{6, 6, 6}, 3},
		{[]int{12, 10, 8}, 4}, // repeat: buffers warm
		{[]int{5, 4, 3, 2}, 2},
		{[]int{3, 9, 7}, 5},   // rank > I_0: fiber products streamed, not stored
		{[]int{9, 1, 7}, 2},   // size-1 mode
		{[]int{12, 10, 8}, 6}, // same shape, new rank: product buffer regrown
	}
	for i, tc := range cases {
		x := tensor.RandomDense(rand.New(rand.NewSource(int64(100+i))), tc.dims...)
		mk := func(w *Workspace) (*KTensor, Info) {
			kt, info, err := Decompose(x, Options{
				Rank: tc.rank, MaxIters: 8, Tol: 1e-12,
				Rng: rand.New(rand.NewSource(int64(i))), Workspace: w,
			})
			if err != nil {
				t.Fatal(err)
			}
			return kt, info
		}
		fresh, freshInfo := mk(nil)
		reused, reusedInfo := mk(ws)
		for k := range fresh.Factors {
			if !fresh.Factors[k].Equal(reused.Factors[k]) {
				t.Fatalf("case %d: factor %d differs with workspace reuse", i, k)
			}
		}
		for j, f := range freshInfo.FitTrace {
			if reusedInfo.FitTrace[j] != f {
				t.Fatalf("case %d: FitTrace[%d] %v != %v", i, j, reusedInfo.FitTrace[j], f)
			}
		}
	}
}

// lowRankDense builds an exactly rank-r dense tensor from random factors.
func lowRankDense(dims []int, r int, seed int64) *tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]*mat.Matrix, len(dims))
	for k, d := range dims {
		fs[k] = mat.Random(d, r, rng)
	}
	return NewKTensor(fs).Full()
}

// oracleKernel answers each Into as a tensor.Sweep must, from outside the
// sweep: it replays the sweep's rule for which contraction Y_m = X ×_m A(m)
// answers (none; the one it holds unless n = m; else one on the previous
// Into's mode p when p ≠ n and I_p ≥ I_0, or on mode 0 for n ≥ 1, and only
// when F ≤ I_0), and computes a fold from Y_m as the standalone MTTKRP of
// the tensor with mode m moved to the front — the same products, fibers
// and weights in the same order.
type oracleKernel struct {
	x       *tensor.Dense
	m, prev int // the contraction's mode, the previous Into's mode; -1: none
	front   map[int]*tensor.Dense
}

func newOracleKernel(x *tensor.Dense) *oracleKernel {
	return &oracleKernel{x: x, m: -1, prev: -1, front: map[int]*tensor.Dense{}}
}

func (k *oracleKernel) Into(dst *mat.Matrix, factors []*mat.Matrix, n int) {
	dims := k.x.Dims
	p := k.prev
	if p < 0 {
		p = (n + len(dims) - 1) % len(dims)
	}
	k.prev = n
	if k.m == n {
		k.m = -1
	}
	if k.m < 0 && dst.Cols <= dims[0] {
		if p != n && dims[p] >= dims[0] {
			k.m = p
		} else if n != 0 {
			k.m = 0
		}
	}
	if k.m <= 0 {
		tensor.MTTKRPInto(dst, k.x, factors, n)
		return
	}
	m := k.m
	fs := append(append([]*mat.Matrix{factors[m]}, factors[:m]...), factors[m+1:]...)
	if n < m {
		n++
	}
	tensor.MTTKRPInto(dst, k.modeFirst(m), fs, n)
}

// modeFirst returns x with mode m moved to the front, the others kept in
// order.
func (k *oracleKernel) modeFirst(m int) *tensor.Dense {
	if y, ok := k.front[m]; ok {
		return y
	}
	dims := k.x.Dims
	pd := append(append([]int{dims[m]}, dims[:m]...), dims[m+1:]...)
	y := tensor.NewDense(pd...)
	src := make([]int, len(dims))
	y.Fill(func(idx []int) float64 {
		src[m] = idx[0]
		copy(src[:m], idx[1:m+1])
		copy(src[m+1:], idx[m+1:])
		return k.x.At(src...)
	})
	k.front[m] = y
	return y
}

// TestSweepKernelBitIdenticalToOracle runs whole decompositions on the
// workspace's tensor.Sweep and on oracleKernel and requires identical
// factors, λ and fit traces under every solver: every contraction is made
// from the factor the solver has just written. The first two shapes have
// I_0 longest (the S pass and the mode-0 pass, MTTKRPInto's bits), the
// last two I_0 shortest (contractions on modes 1..N-1).
func TestSweepKernelBitIdenticalToOracle(t *testing.T) {
	solvers := []Solver{nil, Ridge{Lambda: 1e-3}, Nonnegative{}}
	for _, dims := range [][]int{{14, 12, 10}, {9, 6, 5, 4}, {10, 12, 14}, {4, 6, 5, 9}} {
		x := lowRankDense(dims, 3, 17)
		for _, solver := range solvers {
			opts := func() Options {
				return Options{Rank: 4, MaxIters: 6, Tol: 1e-16, Rng: rand.New(rand.NewSource(5)), Solver: solver}
			}
			got, gotInfo, err := Decompose(x, opts())
			if err != nil {
				t.Fatal(err)
			}
			want, wantInfo, err := alsCore(x.Dims, x.Norm(), newOracleKernel(x), opts())
			if err != nil {
				t.Fatal(err)
			}
			name := "ls"
			if solver != nil {
				name = solver.Name()
			}
			for k := range want.Factors {
				if !got.Factors[k].Equal(want.Factors[k]) {
					t.Fatalf("dims %v solver %s: factor %d differs from the oracle-kernel run", dims, name, k)
				}
			}
			for i, l := range want.Lambda {
				if got.Lambda[i] != l {
					t.Fatalf("dims %v solver %s: λ[%d] differs", dims, name, i)
				}
			}
			if len(gotInfo.FitTrace) != len(wantInfo.FitTrace) {
				t.Fatalf("dims %v solver %s: %d sweeps vs %d", dims, name, len(gotInfo.FitTrace), len(wantInfo.FitTrace))
			}
			for i, fit := range wantInfo.FitTrace {
				if gotInfo.FitTrace[i] != fit {
					t.Fatalf("dims %v solver %s: FitTrace[%d] %v != %v", dims, name, i, gotInfo.FitTrace[i], fit)
				}
			}
		}
	}
}

func TestWorkspaceSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := tensor.RandomCOO(rng, 0.3, 8, 7, 6)
	ws := NewWorkspace()
	kt1, _, err := DecomposeSparse(x, Options{Rank: 3, MaxIters: 5, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	kt2, _, err := DecomposeSparse(x, Options{Rank: 3, MaxIters: 5, Rng: rand.New(rand.NewSource(1)), Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	for k := range kt1.Factors {
		if !kt1.Factors[k].Equal(kt2.Factors[k]) {
			t.Fatalf("sparse factor %d differs with workspace", k)
		}
	}
}

// TestDecomposeKernelWorkersBitExact sweeps the kernel worker grid over a
// full dense CP-ALS run, at the two ranks the benchmark workloads use: 16 is
// two eight-column kernel blocks, 8 is one, and both split the S pass's 360
// fibers into groups that do not fill the last four-fiber batch evenly.
func TestDecomposeKernelWorkersBitExact(t *testing.T) {
	x := tensor.RandomDense(rand.New(rand.NewSource(42)), 24, 20, 18)
	for _, rank := range []int{8, 16} {
		run := func(w int) (*KTensor, Info) {
			defer par.PopWorkers(par.PushWorkers(w))
			kt, info, err := Decompose(x, Options{
				Rank: rank, MaxIters: 4, Rng: rand.New(rand.NewSource(2)),
			})
			if err != nil {
				t.Fatal(err)
			}
			return kt, info
		}
		serialKT, serialInfo := run(1)
		for _, w := range []int{2, 7, 0} {
			kt, info := run(w)
			for k := range kt.Factors {
				if !kt.Factors[k].Equal(serialKT.Factors[k]) {
					t.Fatalf("rank %d workers=%d: factor %d differs from serial", rank, w, k)
				}
			}
			for j, f := range serialInfo.FitTrace {
				if info.FitTrace[j] != f {
					t.Fatalf("rank %d workers=%d: FitTrace[%d] differs", rank, w, j)
				}
			}
		}
	}
}

// BenchmarkALSSweep measures full CP-ALS sweeps on a 64³ rank-16 block —
// the Phase-1 inner loop — with and without workspace reuse, plus the
// nonnegative HALS solver on the workspace path (benchgate holds its
// overhead over the unconstrained workspace sweep to ≤ 2×), plus the
// yardstick for the shared fiber products: the same two sweeps' MTTKRPs as
// standalone calls, one tensor pass per mode (benchgate holds the whole
// workspace sweep below that). The recorded baselines live in
// BENCH_kernels.json at the repo root.
func BenchmarkALSSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandomDense(rng, 64, 64, 64)
	init := []*mat.Matrix{
		mat.Random(64, 16, rng), mat.Random(64, 16, rng), mat.Random(64, 16, rng),
	}
	defer par.PopWorkers(par.PushWorkers(1))
	variants := []struct {
		name   string
		withWS bool
		solver Solver
	}{
		{"fresh", false, nil},
		{"workspace", true, nil},
		{"nonneg", true, Nonnegative{}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var ws *Workspace
			if v.withWS {
				ws = NewWorkspace()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := Decompose(x, Options{
					Rank: 16, MaxIters: 2, Tol: 1e-16, Init: init, Workspace: ws, Solver: v.solver,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("mttkrp-per-mode", func(b *testing.B) {
		dst := mat.New(64, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for sweep := 0; sweep < 2; sweep++ {
				for n := range init {
					tensor.MTTKRPInto(dst, x, init, n)
				}
			}
		}
	})
}
