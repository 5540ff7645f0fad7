package twopcp

import (
	"fmt"
	"io"
	"os"

	"twopcp/internal/tensor"
	"twopcp/internal/tfile"
)

// DecomposeFile runs the full 2PCP pipeline on a tensor file, detecting
// the format from the file magic: dense .tpdn and sparse .tpsp inputs are
// loaded into memory, tiled .tptl inputs stream through DecomposeTiledFile
// fully out-of-core. It returns the result and the input's mode sizes.
// Both front-ends — the twopcp CLI and the twopcpd daemon — go through
// this one entry point, so a job submitted to the service decomposes
// bit-identically to the same file run locally.
func DecomposeFile(path string, opts Options) (*Result, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	magic := make([]byte, len(tfile.Magic))
	if _, err := io.ReadFull(f, magic); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("twopcp: read magic of %s: %w", path, err)
	}
	f.Close()
	switch string(magic) {
	case tfile.Magic:
		res, err := DecomposeTiledFile(path, opts)
		if err != nil {
			return nil, nil, err
		}
		dims := make([]int, len(res.Model.Factors))
		for m, fac := range res.Model.Factors {
			dims[m] = fac.Rows
		}
		return res, dims, nil
	case tensor.DenseMagic:
		x, err := LoadDense(path)
		if err != nil {
			return nil, nil, err
		}
		res, err := Decompose(x, opts)
		return res, x.Dims, err
	case tensor.SparseMagic:
		x, err := LoadCOO(path)
		if err != nil {
			return nil, nil, err
		}
		res, err := DecomposeSparse(x, opts)
		return res, x.Dims, err
	default:
		return nil, nil, fmt.Errorf("twopcp: unrecognized tensor magic %q in %s (want TPDN, TPSP or TPTL)", magic, path)
	}
}
