//go:build !purego

package mat

// useAVX2 selects the assembly kernels: the CPU must have AVX2 and the OS
// must save the YMM registers across context switches.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS has enabled XMM and YMM state.
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The kernels below handle the columns [0, f&^3) (axpyAVX2, hadamardAVX2:
// everything) and require at least one row, fiber and four-column block;
// the callers in kernels.go have checked every length.

//go:noescape
func axpyAVX2(dst, x []float64, a float64)

//go:noescape
func hadamardAVX2(dst, a, b []float64)

//go:noescape
func outerAddAVX2(rows, w, x []float64, count, n, xStride, f int)

//go:noescape
func fibersMulAddAVX2(dst, rows, x []float64, nf, n, f int)

//go:noescape
func foldAddAVX2(dst, s []float64, sStride int, w []float64, count, f int)
