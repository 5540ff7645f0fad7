//go:build !((386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego)

package mat

// No byte view in this build: floats.go compiles its calls to it away
// behind the constant and runs the per-value loops.
const byteView = false

func floatBytes(v []float64) []byte { panic("mat: no float64 byte view") }
