package main

import (
	"math"
	"math/rand"

	"twopcp/internal/tensor"
	"twopcp/internal/tfile"
)

// tensorSpec describes one generated input: a rank-genRank Kruskal model
// with uniform [0,1) factor entries plus Gaussian noise whose norm is
// noise × the model's norm, written as a .tptl file of tiles³ tiles.
//
// The generator uses only math/rand and the repository's file writer, so
// the same seed keeps producing the same file when the repository's own
// generators or kernels change.
type tensorSpec struct {
	dims    []int
	tiles   []int
	genRank int
	noise   float64
	// centred draws the factor entries from [-0.5,0.5) instead: nearly
	// orthogonal components, which ALS fits in a few sweeps where the
	// all-positive ones take dozens.
	centred bool
}

func (s tensorSpec) cells() int {
	n := 1
	for _, d := range s.dims {
		n *= d
	}
	return n
}

// generate writes the tensor for seed to path, one tile resident at a
// time.
func (s tensorSpec) generate(path string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	factors := make([][]float64, len(s.dims)) // factors[m][i*rank+r]
	for m, d := range s.dims {
		f := make([]float64, d*s.genRank)
		for i := range f {
			f[i] = rng.Float64()
			if s.centred {
				f[i] -= 0.5
			}
		}
		factors[m] = f
	}
	sigma := s.noise * kruskalNorm(factors, s.dims, s.genRank) / math.Sqrt(float64(s.cells()))

	w, err := tfile.Create(path, s.dims, s.tiles)
	if err != nil {
		return err
	}
	p := w.Pattern()
	for id, vec := range p.Positions() {
		from, size := p.Block(vec)
		t := tensor.NewDense(size...)
		fillKruskal(t, factors, from, s.genRank)
		// Each tile draws its noise from its own generator, so the file
		// does not depend on the order tiles are written in.
		trng := rand.New(rand.NewSource(seed ^ (int64(id)+1)*0x9E3779B9))
		for i := range t.Data {
			t.Data[i] += sigma * trng.NormFloat64()
		}
		if err := w.WriteTile(vec, t); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// fillKruskal sets t (a 3-mode tile starting at from, mode 0 fastest) to
// the Kruskal model's values there.
func fillKruskal(t *tensor.Dense, factors [][]float64, from []int, rank int) {
	n0, n1, n2 := t.Dims[0], t.Dims[1], t.Dims[2]
	w := make([]float64, rank)
	for k := 0; k < n2; k++ {
		c := factors[2][(from[2]+k)*rank:][:rank]
		for j := 0; j < n1; j++ {
			b := factors[1][(from[1]+j)*rank:][:rank]
			for r := range w {
				w[r] = b[r] * c[r]
			}
			fibre := t.Data[(k*n1+j)*n0:][:n0]
			for i := range fibre {
				a := factors[0][(from[0]+i)*rank:][:rank]
				v := 0.0
				for r, wr := range w {
					v += a[r] * wr
				}
				fibre[i] = v
			}
		}
	}
}

// kruskalNorm is the Frobenius norm of the unit-weight Kruskal model,
// from the Hadamard product of the factor Gram matrices.
func kruskalNorm(factors [][]float64, dims []int, rank int) float64 {
	had := make([]float64, rank*rank)
	for i := range had {
		had[i] = 1
	}
	for m, f := range factors {
		for r := 0; r < rank; r++ {
			for s := 0; s < rank; s++ {
				g := 0.0
				for i := 0; i < dims[m]; i++ {
					g += f[i*rank+r] * f[i*rank+s]
				}
				had[r*rank+s] *= g
			}
		}
	}
	sum := 0.0
	for _, v := range had {
		sum += v
	}
	return math.Sqrt(sum)
}
