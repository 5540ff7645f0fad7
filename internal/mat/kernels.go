package mat

// This file holds the innermost compute primitives shared by the matrix and
// tensor kernels: the four fiber primitives Axpy, OuterAdd (over a run of
// fibers), FibersMatMulAdd (and VecMatMulAdd, its one-fiber form) and
// FoldAdd, plus the element-wise HadamardVec. Each has two
// implementations: the Go loops below, which run everywhere, and AVX2
// assembly (kernels_amd64.s) that takes over the bulk of the work where
// package init finds, by CPUID, that the CPU and the OS support it.
// Building with -tags purego leaves only the Go loops.
//
// The Go loops are written so the compiler keeps the accumulator blocks in
// registers: the column dimension is processed in blocks of four (eight,
// then four, for OuterAdd's weights; the assembly takes eights then fours
// throughout). The assembly vectorises across that
// same column index — the one dimension in which all of these are
// element-wise — with a separate multiply and add, never a fused one, so
// every lane rounds exactly as the scalar loop does and the two
// implementations agree bit for bit.
//
// All primitives are strictly sequential front-to-back accumulations per
// output element, so parallel callers that assign each output region to one
// invocation get bit-identical results at any worker count.
//
// Callers: the dense MTTKRP of internal/tensor (OuterAdd for mode 0,
// FibersMatMulAdd and FoldAdd for the other modes); MulInto (Axpy),
// TMulInto and GramInto (OuterAdd); Phase 2's T product and Hadamards in
// internal/refine (FibersMatMulAdd, HadamardVec); the query scans of
// internal/serve (FibersMatMulAdd); both triangular sweeps of
// RightSolveSPDInto (OuterAdd, one call per run of nonzero coefficients);
// and tensor.(*Dense).Norm, whose squares go through FoldAdd in eight
// lanes.

// KernelPath names the implementation behind the primitives of this file
// in this process: "avx2" or "generic".
func KernelPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// Axpy computes dst[i] += a*x[i] over len(x) elements.
// dst must have at least len(x) elements.
func Axpy(dst, x []float64, a float64) {
	n := len(x)
	dst = dst[:n]
	// The Gram and TMul kernels call this on rows of 1 to 16 elements; below
	// two vectors the call into assembly does not pay for itself.
	if useAVX2 && n >= 8 {
		axpyAVX2(dst, x, a)
		return
	}
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
// i runs front to back from zero, independently per column. This is the
// fiber kernel of mode-n MTTKRP (n > 0): x is a contiguous mode-0 fiber
// and M the mode-0 factor panel.
func VecMatMulAdd(dst []float64, rows []float64, x []float64, f int) {
	FibersMatMulAdd(dst, rows, x, len(x), f)
}

// FibersMatMulAdd is VecMatMulAdd over the len(x)/n consecutive fibers of n
// elements in x, fiber k accumulating into dst[k*f:(k+1)*f]. The vector
// implementation works on four fibers at a time — one fiber's columns are
// too few independent sums to keep the adders busy — but every sum is still
// its own front-to-back chain, so a fiber's result does not depend on the
// fibers it is batched with.
func FibersMatMulAdd(dst, rows, x []float64, n, f int) {
	if n == 0 || f == 0 || len(x) == 0 {
		return
	}
	nf := len(x) / n
	_ = rows[n*f-1]
	_ = dst[nf*f-1]
	c0 := 0
	if useAVX2 && f >= 4 {
		fibersMulAddAVX2(dst, rows, x, nf, n, f)
		c0 = f &^ 3
	}
	if c0 == f {
		return
	}
	for k := 0; k < nf; k++ {
		vecMatMulAddFrom(dst[k*f:(k+1)*f], rows, x[k*n:(k+1)*n], f, c0)
	}
}

// vecMatMulAddFrom is VecMatMulAdd over columns [c0, f), in four-column
// register blocks and then single columns.
func vecMatMulAddFrom(dst []float64, rows []float64, x []float64, f, c0 int) {
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

// OuterAdd computes M += Σ_q x_q ⊗ w_q for a row-major panel M of n rows of
// f columns and the count = len(w)/f fibers x_q = x[q*xStride:q*xStride+n]
// with weights w_q = w[q*f:(q+1)*f]: rows[i*f+c] += x_q[i]·w_q[c] for q in
// ascending order, every product rounded before it joins the panel — the
// result of count one-fiber calls. This is the mode-0 MTTKRP kernel, the
// counterpart of FibersMatMulAdd: a run of fibers accumulates into the
// output panel as rank-one updates. The vector implementation takes four
// fibers at a time, so each panel row is loaded and stored once per four
// fibers instead of once per fiber.
func OuterAdd(rows, w, x []float64, n, xStride, f int) {
	if n == 0 || f == 0 || len(w) < f {
		return
	}
	outerAdd(rows, w, x, len(w)/f, n, xStride, f)
}

// outerAdd is OuterAdd over count fibers for a caller that knows count, so
// it need not divide len(w) by f: the solve's sweeps make F calls of a few
// fibers each, where that division was a tenth of the time. count, n and f
// must each be at least one.
func outerAdd(rows, w, x []float64, count, n, xStride, f int) {
	_ = rows[n*f-1]
	_ = w[count*f-1]
	_ = x[(count-1)*xStride+n-1]
	c0 := 0
	if useAVX2 && f >= 4 {
		outerAddAVX2(rows, w, x, count, n, xStride, f)
		c0 = f &^ 3
		if c0 == f {
			return
		}
	}
	for q := 0; q < count; q++ {
		outerAddFrom(rows, w[q*f:(q+1)*f], x[q*xStride:q*xStride+n], f, c0)
	}
}

// outerAddFrom is one fiber's OuterAdd over columns [c0, f). Every element
// of M receives exactly one addition, so the loop order is free: columns go
// in blocks of eight, then four, with the block's weights held in registers
// down the whole fiber.
func outerAddFrom(rows, w, x []float64, f, c0 int) {
	_ = rows[len(x)*f-1]
	w = w[:f:f]
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

// FoldAdd computes dst[c] += Σ_q s[q*sStride+c]·w[q*f+c] over q < count and
// c < f: count rows of f floats, sStride apart in s, each multiplied element
// by element with its row of the packed panel w and added to dst in
// ascending q, every product rounded before it joins the running dst[c].
// This is the fold of mode-n MTTKRP (n > 0): dst is an output row, the rows
// of s its fibers' products with the mode-0 factor, w their weights. Each
// column is one serial chain of additions, so the columns go in blocks that
// stay in registers down the whole run.
func FoldAdd(dst, s []float64, sStride int, w []float64, count, f int) {
	if count == 0 || f == 0 {
		return
	}
	dst = dst[:f:f]
	_ = s[(count-1)*sStride+f-1]
	_ = w[count*f-1]
	c0 := 0
	if useAVX2 && f >= 4 {
		foldAddAVX2(dst, s, sStride, w, count, f)
		c0 = f &^ 3
	}
	for ; c0+4 <= f; c0 += 4 {
		d := dst[c0 : c0+4 : c0+4]
		d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
		ps, pw := c0, c0
		for q := 0; q < count; q++ {
			sr := s[ps : ps+4 : ps+4]
			wr := w[pw : pw+4 : pw+4]
			d0 += sr[0] * wr[0]
			d1 += sr[1] * wr[1]
			d2 += sr[2] * wr[2]
			d3 += sr[3] * wr[3]
			ps += sStride
			pw += f
		}
		d[0], d[1], d[2], d[3] = d0, d1, d2, d3
	}
	for ; c0 < f; c0++ {
		acc := dst[c0]
		ps, pw := c0, c0
		for q := 0; q < count; q++ {
			acc += s[ps] * w[pw]
			ps += sStride
			pw += f
		}
		dst[c0] = acc
	}
}

// HadamardVec computes dst[i] = a[i]*b[i] over len(dst) elements. dst may
// be a or b.
func HadamardVec(dst, a, b []float64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	// Below two vectors, as for Axpy, the call does not pay for itself.
	if useAVX2 && n >= 8 {
		hadamardAVX2(dst, a, b)
		return
	}
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}
