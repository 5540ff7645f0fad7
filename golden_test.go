package twopcp_test

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twopcp"
)

// Golden-file regression suite: committed fixtures under testdata/ pin the
// exact bits the pipeline produces for every solver, so a kernel or solver
// change that drifts numerics — even in the last ulp — fails loudly
// instead of silently shifting results.
//
// Regenerate after an *intentional* numeric change with:
//
//	go test -run TestGolden -update-golden
//
// and commit the diff (including testdata/golden.tptl). The fixtures were
// recorded on linux/amd64; Go's float64 semantics make them stable across
// the toolchains CI runs, and across internal/mat's vector and pure-Go
// kernels (TestGoldenVectorWidthFactors).

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden fixtures")

// goldenTensor is the deterministic input shared by all golden runs.
func goldenTensor() *twopcp.Dense {
	return twopcp.RandomDense(rand.New(rand.NewSource(42)), 12, 10, 8)
}

func goldenOpts(c twopcp.Constraint, lambda float64) twopcp.Options {
	return twopcp.Options{
		Rank:           3,
		Partitions:     []int{2},
		BufferFraction: 0.5,
		MaxIters:       6,
		Tol:            1e-9,
		Seed:           42,
		Constraint:     c,
		Lambda:         lambda,
	}
}

// goldenDump serializes a Result's deterministic fields bit-exactly: every
// float64 as its 16-digit hex bit pattern. The final Fit is deliberately
// excluded — the tiled front-end legally differs from the dense one in its
// last few ulps (tile-ordered reduction); everything else must be
// bit-identical across front-ends.
func goldenDump(res *twopcp.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iters %d converged %v swaps %d\n", res.VirtualIters, res.Converged, res.RunStats.Swaps)
	b.WriteString("trace")
	for _, f := range res.FitTrace {
		fmt.Fprintf(&b, " %016x", math.Float64bits(f))
	}
	b.WriteString("\n")
	for m, a := range res.Model.Factors {
		fmt.Fprintf(&b, "mode %d %dx%d\n", m, a.Rows, a.Cols)
		for i := 0; i < a.Rows; i++ {
			row := a.Row(i)
			for j, v := range row {
				if j > 0 {
					b.WriteString(" ")
				}
				fmt.Fprintf(&b, "%016x", math.Float64bits(v))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden-"+name+".txt")
}

// goldenWant returns the committed fixture for name, first rewriting it
// with dump under -update-golden.
func goldenWant(t *testing.T, name, dump string) string {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	return string(want)
}

// TestGoldenFixtureTensor pins the committed .tptl fixture to the
// generator: testdata/golden.tptl must hold exactly goldenTensor().
func TestGoldenFixtureTensor(t *testing.T) {
	path := filepath.Join("testdata", "golden.tptl")
	x := goldenTensor()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := twopcp.SaveTiled(path, x, []int{3, 2, 2}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := twopcp.LoadTiled(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	if len(got.Dims) != len(x.Dims) {
		t.Fatalf("fixture has %d modes, want %d", len(got.Dims), len(x.Dims))
	}
	for i := range x.Data {
		if got.Data[i] != x.Data[i] {
			t.Fatalf("fixture cell %d is %x, want %x", i, got.Data[i], x.Data[i])
		}
	}
}

// TestGoldenFactors decomposes the fixture with all three solvers through
// both the in-memory and the tiled front-end and compares the factor/trace
// dumps byte-for-byte against the committed goldens.
func TestGoldenFactors(t *testing.T) {
	x := goldenTensor()
	tiledPath := filepath.Join("testdata", "golden.tptl")
	for _, tc := range constraintCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := goldenOpts(tc.constraint, tc.lambda)
			dense, err := twopcp.Decompose(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			dump := goldenDump(dense)
			want := goldenWant(t, tc.name, dump)
			if dump != want {
				t.Fatalf("dense %s run drifted from golden %s:\ngot:\n%s\nwant:\n%s",
					tc.name, goldenPath(tc.name), dump, want)
			}

			tiled, err := twopcp.DecomposeTiledFile(tiledPath, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tdump := goldenDump(tiled); tdump != want {
				t.Fatalf("tiled %s run drifted from golden %s", tc.name, goldenPath(tc.name))
			}
		})
	}
}

// TestGoldenAcceleratedFactors pins the accelerated pipelines the same
// way: one hex-bit dump per accelerator, produced from the shared
// fixture tensor through both the in-memory and the tiled front-end.
// Phase 0 is deterministic (seeded sketches, serial block streaming), so
// these fixtures pin the range finder, core ALS, expansion and the short
// warm Phase-1 pass all at once.
func TestGoldenAcceleratedFactors(t *testing.T) {
	x := goldenTensor()
	tiledPath := filepath.Join("testdata", "golden.tptl")
	accels := []struct {
		name       string
		accel      twopcp.Accelerator
		oversample int
	}{
		// Oversample 2 keeps the 12×10×8 fixture's Tucker core under the
		// structural-fallback threshold (min(d,3+2)³ = 125 cells < 480),
		// so the fixture pins the accelerated path, not the fallback.
		{"accel-tucker", twopcp.AccelTucker, 2},
	}
	for _, tc := range accels {
		t.Run(tc.name, func(t *testing.T) {
			opts := goldenOpts(twopcp.ConstraintNone, 0)
			opts.Accelerator = tc.accel
			opts.SketchOversample = tc.oversample
			dense, err := twopcp.Decompose(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !dense.RunStats.Accelerated {
				t.Fatalf("%s golden run fell back — the fixture would pin the unaccelerated pipeline", tc.name)
			}
			dump := goldenDump(dense)
			want := goldenWant(t, tc.name, dump)
			if dump != want {
				t.Fatalf("dense %s run drifted from golden %s:\ngot:\n%s\nwant:\n%s",
					tc.name, goldenPath(tc.name), dump, want)
			}

			tiled, err := twopcp.DecomposeTiledFile(tiledPath, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tdump := goldenDump(tiled); tdump != want {
				t.Fatalf("tiled %s run drifted from golden %s", tc.name, goldenPath(tc.name))
			}
		})
	}
}

// TestGoldenVectorWidthFactors pins runs wide enough to reach internal/mat's
// vector kernels. At the rank 3 of the fixtures above no kernel call ever
// enters an 8- or 4-column block or an Axpy of four elements, so those
// goldens would pass with a wrong vector kernel; ranks 8 and 16 on a
// 20×18×16 tensor go through every block width. The fixtures were recorded
// with the pure-Go loops (the only kernels there were at the time, today's
// -tags purego build) and have to hold on both builds.
func TestGoldenVectorWidthFactors(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(43)), 20, 18, 16)
	for _, rank := range []int{8, 16} {
		for _, tc := range []struct {
			name       string
			constraint twopcp.Constraint
		}{{"ls", twopcp.ConstraintNone}, {"nonneg", twopcp.ConstraintNonneg}} {
			name := fmt.Sprintf("r%d-%s", rank, tc.name)
			t.Run(name, func(t *testing.T) {
				opts := goldenOpts(tc.constraint, 0)
				opts.Rank = rank
				res, err := twopcp.Decompose(x, opts)
				if err != nil {
					t.Fatal(err)
				}
				if dump := goldenDump(res); dump != goldenWant(t, name, dump) {
					t.Fatalf("%s run drifted from golden %s", name, goldenPath(name))
				}
			})
		}
	}
}

// TestGoldenShortModeZeroFactors pins runs whose blocks have I_0 as their
// shortest mode: on 8×10×12 in 2×2×2 blocks of 4×5×6, Phase 1's MTTKRPs
// fold from contractions on modes 1 and 2 (tensor.Sweep), which the
// 12×10×8 fixture, whose blocks have I_0 longest, never reaches. The tiled
// front-end must reproduce the dense run's bits.
func TestGoldenShortModeZeroFactors(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(44)), 8, 10, 12)
	tiledPath := filepath.Join(t.TempDir(), "x.tptl")
	if err := twopcp.SaveTiled(tiledPath, x, []int{2, 5, 3}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		constraint twopcp.Constraint
	}{{"ls", twopcp.ConstraintNone}, {"nonneg", twopcp.ConstraintNonneg}} {
		name := "i0short-" + tc.name
		t.Run(name, func(t *testing.T) {
			opts := goldenOpts(tc.constraint, 0)
			res, err := twopcp.Decompose(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			dump := goldenDump(res)
			if dump != goldenWant(t, name, dump) {
				t.Fatalf("%s run drifted from golden %s", name, goldenPath(name))
			}
			tiled, err := twopcp.DecomposeTiledFile(tiledPath, opts)
			if err != nil {
				t.Fatal(err)
			}
			if goldenDump(tiled) != dump {
				t.Fatalf("tiled %s run drifted from the dense run", name)
			}
		})
	}
}
