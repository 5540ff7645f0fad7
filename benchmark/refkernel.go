package main

// The frozen reference kernel. Every calibrated metric is a ratio to this
// code's speed at the moment of measurement, so it must never change: it
// imports nothing from the repository, runs on one goroutine, allocates
// nothing per pass, and editing it is a new benchmark issue, not a fix.
//
// One pass is a rank-8, mode-0, MTTKRP-shaped streaming FMA over one 64³
// float64 block (2 MiB, larger than L2 here): for every fibre (j,k) the
// rank-8 weight row B[j,:]∘C[k,:] is formed and the 64 cells of the fibre
// are accumulated into M[i,:]. That is the same mix of streaming loads and
// short FMA chains the repository's Phase-1 kernels run, which is why its
// speed tracks theirs when the shared box slows down.

const (
	refDim  = 64
	refRank = 8
	// refPasses passes make one reference sample (~10 ms here).
	refPasses = 8
	// RefNominalMS is the per-pass time on a quiet run of the box this
	// benchmark was defined on. Calibrated values are
	// wall × RefNominalMS / measured-pass-time, so they read like
	// milliseconds on that box. Fixed with the kernel.
	RefNominalMS = 0.88
)

type refKernel struct {
	x       []float64 // 64³ block, mode 0 fastest
	b, c, m []float64 // 64×8 row-major
}

func newRefKernel() *refKernel {
	k := &refKernel{
		x: make([]float64, refDim*refDim*refDim),
		b: make([]float64, refDim*refRank),
		c: make([]float64, refDim*refRank),
		m: make([]float64, refDim*refRank),
	}
	// A fixed linear-congruential fill: the values only need to be
	// finite, non-trivial and identical on every run.
	s := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / (1 << 53)
	}
	for i := range k.x {
		k.x[i] = next()
	}
	for i := range k.b {
		k.b[i] = next()
		k.c[i] = next()
	}
	return k
}

// pass runs the kernel once and returns a checksum so the work cannot be
// optimised away.
func (k *refKernel) pass() float64 {
	for i := range k.m {
		k.m[i] = 0
	}
	var w [refRank]float64
	for kk := 0; kk < refDim; kk++ {
		crow := k.c[kk*refRank : kk*refRank+refRank]
		for j := 0; j < refDim; j++ {
			brow := k.b[j*refRank : j*refRank+refRank]
			for r := 0; r < refRank; r++ {
				w[r] = brow[r] * crow[r]
			}
			fibre := k.x[(kk*refDim+j)*refDim : (kk*refDim+j)*refDim+refDim]
			for i, x := range fibre {
				mrow := k.m[i*refRank : i*refRank+refRank]
				mrow[0] += x * w[0]
				mrow[1] += x * w[1]
				mrow[2] += x * w[2]
				mrow[3] += x * w[3]
				mrow[4] += x * w[4]
				mrow[5] += x * w[5]
				mrow[6] += x * w[6]
				mrow[7] += x * w[7]
			}
		}
	}
	sum := 0.0
	for _, v := range k.m {
		sum += v
	}
	return sum
}
