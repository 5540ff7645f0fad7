//go:build !amd64 || purego

package mat

// No vector kernels in this build: kernels.go compiles its calls to them
// away behind the constant.
const useAVX2 = false

func axpyAVX2(dst, x []float64, a float64)                  { panic("mat: no vector kernels") }
func hadamardAVX2(dst, a, b []float64)                      { panic("mat: no vector kernels") }
func fibersMulAddAVX2(dst, rows, x []float64, nf, n, f int) { panic("mat: no vector kernels") }
func outerAddAVX2(rows, w, x []float64, count, n, xStride, f int) {
	panic("mat: no vector kernels")
}
func foldAddAVX2(dst, s []float64, sStride int, w []float64, count, f int) {
	panic("mat: no vector kernels")
}
