package experiments

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"twopcp/internal/experiments/mapreduce"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/phase1"
	"twopcp/internal/tensor"
)

// RunMapReduce executes Phase 1 with the paper's §IV map/reduce operators
// on the in-process MapReduce engine of package mapreduce:
//
//	map:    ⟨b, i, j, k, X(i,j,k)⟩ on b — each nonzero is routed to the
//	        reducer owning its block id b.
//	reduce: ⟨b, {coords, values}⟩ — recompose the sub-tensor X_b, decompose
//	        it with PARAFAC, emit each sub-factor U(n)_b.
//
// The returned counters expose the shuffle volume this phase generates.
// Results are identical (bit-for-bit) to phase1.Run with the same Options
// because per-block generators are seeded by block id.
func RunMapReduce(x *tensor.COO, p *grid.Pattern, opts phase1.Options, cfg mapreduce.Config) (*phase1.Result, mapreduce.Counters, error) {
	if opts.Rank <= 0 {
		return nil, mapreduce.Counters{}, fmt.Errorf("experiments: rank %d", opts.Rank)
	}
	nModes := p.NModes()

	// Inputs: one record per nonzero, carrying global coordinates + value.
	type record struct {
		coords []int
		value  float64
	}
	inputs := make([]any, x.NNZ())
	for n := range inputs {
		r := record{coords: x.Coord(n, nil), value: x.Vals[n]}
		inputs[n] = r
	}

	recLen := 4*nModes + 8 // a shuffled nonzero: int32 local coordinates, its float64 value
	mapper := func(in any, emit func(string, []byte)) error {
		r := in.(record)
		vec := make([]int, nModes)
		rec := make([]byte, 0, recLen)
		for m, c := range r.coords {
			vec[m], _ = p.Cover(m, c, 1) // the part holding coordinate c
			from, _ := p.ModeRange(m, vec[m])
			rec = binary.LittleEndian.AppendUint32(rec, uint32(int32(c-from)))
		}
		emit(strconv.Itoa(p.Linear(vec)), mat.AppendFloats(rec, []float64{r.value}))
		return nil
	}

	reducer := func(key string, values [][]byte, emit func(string, []byte)) error {
		blockID, err := strconv.Atoi(key)
		if err != nil {
			return fmt.Errorf("experiments: bad block key %q: %w", key, err)
		}
		vec := p.Unlinear(blockID, nil)
		_, size := p.Block(vec)
		blk := tensor.NewCOO(size...)
		local := make([]int, nModes)
		val := make([]float64, 1)
		for _, v := range values {
			if len(v) != recLen {
				return fmt.Errorf("experiments: %d-byte shuffle record for block %d, want %d", len(v), blockID, recLen)
			}
			for m := range local {
				local[m] = int(int32(binary.LittleEndian.Uint32(v[4*m:])))
			}
			mat.DecodeFloats(val, v[4*nModes:])
			blk.Append(local, val[0])
		}
		factors, _, _, err := phase1.DecomposeBlock(blk, blockID, p, opts, nil)
		if err != nil {
			return err
		}
		// Emit each sub-factor U(n)_b as an independent record, keyed
		// "U/<block>/<mode>" as in the paper's reducer output.
		for m, f := range factors {
			emit(fmt.Sprintf("U/%d/%d", blockID, m), mat.AppendMatrix(nil, f))
		}
		return nil
	}

	out, counters, err := mapreduce.Run(inputs, mapper, reducer, cfg)
	if err != nil {
		return nil, counters, err
	}

	res := &phase1.Result{
		Pattern: p,
		Rank:    opts.Rank,
		Sub:     make([][]*mat.Matrix, p.NumBlocks()),
		Fits:    make([]float64, p.NumBlocks()),
	}
	for _, pair := range out {
		parts := strings.Split(pair.Key, "/")
		if len(parts) != 3 || parts[0] != "U" {
			return nil, counters, fmt.Errorf("experiments: unexpected reduce key %q", pair.Key)
		}
		blockID, err1 := strconv.Atoi(parts[1])
		mode, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			return nil, counters, fmt.Errorf("experiments: unparseable reduce key %q", pair.Key)
		}
		m, rest, err := mat.DecodeMatrix(pair.Value)
		if err != nil {
			return nil, counters, fmt.Errorf("experiments: reduce value %q: %w", pair.Key, err)
		}
		if len(rest) != 0 {
			return nil, counters, fmt.Errorf("experiments: reduce value %q has %d bytes after its matrix", pair.Key, len(rest))
		}
		if res.Sub[blockID] == nil {
			res.Sub[blockID] = make([]*mat.Matrix, nModes)
		}
		res.Sub[blockID][mode] = m
	}
	// Empty blocks never reached a reducer: fill zero factors (footnote 3).
	for id := range res.Sub {
		if res.Sub[id] == nil {
			vec := p.Unlinear(id, nil)
			_, size := p.Block(vec)
			factors := make([]*mat.Matrix, nModes)
			for m, rows := range size {
				factors[m] = mat.New(rows, opts.Rank)
			}
			res.Sub[id] = factors
			res.Fits[id] = 1
		}
	}
	return res, counters, nil
}
