// Package haten2 implements the comparison baseline of the paper's Table I:
// a HaTen2-style sparse CP-ALS that runs every factor update as MapReduce
// jobs over the nonzero entries, exactly like the MapReduce PARAFAC suite
// of Jeon et al. (ICDE'15) that the paper benchmarks against.
//
// The defining performance characteristics the paper attributes to HaTen2
// are reproduced structurally rather than numerically:
//
//   - every ALS mode update shuffles O(nnz·F) bytes of intermediate data
//     across the (simulated) network — counted byte-exactly by the
//     mapreduce engine;
//   - the grouped reduce-side intermediates grow with the tensor, so dense
//     tensors blow past the per-reducer memory budget and the job FAILS
//     (mapreduce.ErrMemoryExceeded), as observed in the paper's
//     1500×1500×1500 run.
//
// HaTen2 targets sparse tensors; feeding it the paper's dense workloads via
// tensor.FromDense reproduces the mismatch the paper highlights.
package haten2

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"twopcp/internal/cpals"
	"twopcp/internal/experiments/mapreduce"
	"twopcp/internal/mat"
	"twopcp/internal/tensor"
)

// Options configures a run.
type Options struct {
	// Rank is the CP rank F.
	Rank int
	// MaxIters bounds ALS sweeps; the paper measured HaTen2 at 1 iteration
	// "due to the large execution time".
	MaxIters int
	// Tol stops when the fit improves less than Tol (default: run all
	// MaxIters, matching the fixed-iteration measurement).
	Tol float64
	// Seed drives factor initialization.
	Seed int64
	// MR configures the MapReduce substrate (reducers, memory cap).
	MR mapreduce.Config
}

// Info reports a run.
type Info struct {
	Iters    int
	Fit      float64
	Jobs     int
	Counters mapreduce.Counters
}

// ErrResources wraps the simulated cluster-resource failure.
var ErrResources = errors.New("haten2: insufficient cluster resources")

type record struct {
	coords []int
	value  float64
}

// Decompose runs HaTen2-style CP-ALS on a sparse tensor. Each mode update
// is one MapReduce job computing the MTTKRP; the driver solves the F×F
// normal equations. Returns the Kruskal result and run info; on a simulated
// out-of-memory the error wraps both ErrResources and
// mapreduce.ErrMemoryExceeded, with Info carrying the traffic so far.
func Decompose(x *tensor.COO, opts Options) (*cpals.KTensor, Info, error) {
	info := Info{}
	if opts.Rank <= 0 {
		return nil, info, fmt.Errorf("haten2: rank %d", opts.Rank)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 1
	}
	n := x.NModes()
	f := opts.Rank
	rng := rand.New(rand.NewSource(opts.Seed))
	factors := make([]*mat.Matrix, n)
	for m := range factors {
		factors[m] = mat.Random(x.Dims[m], f, rng)
	}
	lambda := make([]float64, f)
	for i := range lambda {
		lambda[i] = 1
	}
	grams := make([]*mat.Matrix, n)
	for m := range grams {
		grams[m] = mat.Gram(factors[m])
	}

	// Materialize the nonzero records once (the "HDFS input").
	inputs := make([]any, x.NNZ())
	for p := range inputs {
		inputs[p] = record{coords: x.Coord(p, nil), value: x.Vals[p]}
	}

	pipeline := &mapreduce.Pipeline{Config: opts.MR}
	normX := x.Norm()
	prevFit := 0.0
	for iter := 1; iter <= opts.MaxIters; iter++ {
		var lastM *mat.Matrix
		for mode := 0; mode < n; mode++ {
			m, err := mttkrpJob(pipeline, inputs, factors, mode, f)
			if err != nil {
				info.Jobs = pipeline.Jobs
				info.Counters = pipeline.Counters
				if errors.Is(err, mapreduce.ErrMemoryExceeded) {
					return nil, info, fmt.Errorf("%w: %w", ErrResources, err)
				}
				return nil, info, err
			}
			v := mat.New(f, f)
			v.Fill(1)
			for k := 0; k < n; k++ {
				if k != mode {
					v.HadamardInPlace(grams[k])
				}
			}
			a := mat.RightSolveSPD(m, v)
			norms := a.NormalizeColumns(1e-300)
			copy(lambda, norms)
			factors[mode] = a
			mat.GramInto(grams[mode], a)
			lastM = m
		}
		kt := &cpals.KTensor{Lambda: lambda, Factors: factors}
		inner := 0.0
		for ff, l := range lambda {
			var c float64
			for i := 0; i < lastM.Rows; i++ {
				c += lastM.At(i, ff) * factors[n-1].At(i, ff)
			}
			inner += l * c
		}
		modelNorm := kt.Norm()
		res2 := normX*normX + modelNorm*modelNorm - 2*inner
		if res2 < 0 {
			res2 = 0
		}
		fit := 1.0
		if normX > 0 {
			fit = 1 - math.Sqrt(res2)/normX
		}
		info.Iters = iter
		info.Fit = fit
		if opts.Tol > 0 && iter > 1 && math.Abs(fit-prevFit) < opts.Tol {
			break
		}
		prevFit = fit
	}
	info.Jobs = pipeline.Jobs
	info.Counters = pipeline.Counters
	out := &cpals.KTensor{Lambda: append([]float64(nil), lambda...), Factors: factors}
	return out, info, nil
}

// mttkrpJob computes the mode-n MTTKRP as one MapReduce job: each mapper
// multiplies a nonzero by the Hadamard of the other modes' factor rows and
// emits the F-vector keyed by target row; reducers sum the vectors. This
// shuffles nnz·F doubles — HaTen2's per-update communication volume.
func mttkrpJob(p *mapreduce.Pipeline, inputs []any, factors []*mat.Matrix, mode, f int) (*mat.Matrix, error) {
	mapper := func(in any, emit func(string, []byte)) error {
		r := in.(record)
		row := make([]float64, f)
		for c := range row {
			row[c] = r.value
		}
		for k, fk := range factors {
			if k == mode {
				continue
			}
			fr := fk.Row(r.coords[k])
			for c := range row {
				row[c] *= fr[c]
			}
		}
		emit(strconv.Itoa(r.coords[mode]), mat.AppendFloats(nil, row))
		return nil
	}
	reducer := func(key string, values [][]byte, emit func(string, []byte)) error {
		sum := make([]float64, f)
		vec := make([]float64, f)
		for _, v := range values {
			if err := mat.ReadFloats(bytes.NewReader(v), vec); err != nil {
				return err
			}
			for c := range sum {
				sum[c] += vec[c]
			}
		}
		emit(key, mat.AppendFloats(nil, sum))
		return nil
	}
	out, err := p.Run(inputs, mapper, reducer)
	if err != nil {
		return nil, err
	}
	m := mat.New(factors[mode].Rows, f)
	for _, pair := range out {
		idx, err := strconv.Atoi(pair.Key)
		if err != nil {
			return nil, fmt.Errorf("haten2: bad row key %q: %w", pair.Key, err)
		}
		if err := mat.ReadFloats(bytes.NewReader(pair.Value), m.Row(idx)); err != nil {
			return nil, err
		}
	}
	return m, nil
}
