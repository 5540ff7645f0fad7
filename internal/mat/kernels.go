package mat

// This file holds the innermost compute primitives shared by the matrix and
// tensor kernels. They are written so the compiler keeps the accumulator
// blocks in registers: the column dimension is processed in blocks of four
// (eight, then four, for OuterAdd's weights), which is where the dense
// MTTKRP/GEMM speedup comes from — the blocked loops run several times
// faster than a naive element-at-a-time sweep.
//
// All primitives are strictly sequential left-to-right accumulations per
// output element, so parallel callers that assign each output region to one
// invocation get bit-identical results at any worker count.

// Axpy computes dst[i] += a*x[i] over len(x) elements.
// dst must have at least len(x) elements.
func Axpy(dst, x []float64, a float64) {
	n := len(x)
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		s := x[i : i+4 : i+4]
		d[0] += a * s[0]
		d[1] += a * s[1]
		d[2] += a * s[2]
		d[3] += a * s[3]
	}
	for ; i < n; i++ {
		dst[i] += a * x[i]
	}
}

// VecMatMulAdd computes dst += xᵀ·M for a row-major panel M with len(x)
// rows of f columns: dst[c] += Σ_i x[i]·rows[i*f+c]. The accumulation over
// i runs front to back independently per column, in four-column register
// blocks. This is the fiber kernel of mode-n MTTKRP (n > 0): x is a
// contiguous mode-0 fiber and M the mode-0 factor panel.
func VecMatMulAdd(dst []float64, rows []float64, x []float64, f int) {
	if len(x) == 0 || f == 0 {
		return
	}
	_ = rows[len(x)*f-1]
	c0 := 0
	for ; c0+4 <= f; c0 += 4 {
		var s0, s1, s2, s3 float64
		p := c0
		for _, v := range x {
			r := rows[p : p+4 : p+4]
			s0 += v * r[0]
			s1 += v * r[1]
			s2 += v * r[2]
			s3 += v * r[3]
			p += f
		}
		d := dst[c0 : c0+4 : c0+4]
		d[0] += s0
		d[1] += s1
		d[2] += s2
		d[3] += s3
	}
	for ; c0 < f; c0++ {
		var acc float64
		p := c0
		for _, v := range x {
			acc += v * rows[p]
			p += f
		}
		dst[c0] += acc
	}
}

// OuterAdd computes M += x ⊗ w for a row-major panel M with len(x) rows of
// f columns: rows[i*f+c] += x[i]·w[c]. This is the mode-0 MTTKRP fiber
// kernel: whole fibers accumulate into the output panel as rank-one
// updates. Every element of M receives exactly one addition, so the loop
// order is free: columns go in blocks of eight, then four, with the
// block's weights held in registers down the whole fiber.
func OuterAdd(rows []float64, w []float64, x []float64, f int) {
	if len(x) == 0 || f == 0 {
		return
	}
	_ = rows[len(x)*f-1]
	w = w[:f:f]
	c0 := 0
	for ; c0+8 <= f; c0 += 8 {
		s := w[c0 : c0+8 : c0+8]
		w0, w1, w2, w3, w4, w5, w6, w7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		p := c0
		for _, v := range x {
			r := rows[p : p+8 : p+8]
			r[0] += v * w0
			r[1] += v * w1
			r[2] += v * w2
			r[3] += v * w3
			r[4] += v * w4
			r[5] += v * w5
			r[6] += v * w6
			r[7] += v * w7
			p += f
		}
	}
	for ; c0+4 <= f; c0 += 4 {
		s := w[c0 : c0+4 : c0+4]
		w0, w1, w2, w3 := s[0], s[1], s[2], s[3]
		p := c0
		for _, v := range x {
			r := rows[p : p+4 : p+4]
			r[0] += v * w0
			r[1] += v * w1
			r[2] += v * w2
			r[3] += v * w3
			p += f
		}
	}
	for ; c0 < f; c0++ {
		wc := w[c0]
		p := c0
		for _, v := range x {
			rows[p] += v * wc
			p += f
		}
	}
}

// HadamardVec computes dst[i] = a[i]*b[i] over len(dst) elements.
func HadamardVec(dst, a, b []float64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}
