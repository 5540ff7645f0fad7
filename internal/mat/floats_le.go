//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego

package mat

import "unsafe"

// On these little-endian architectures a float64's memory is its encoding.
const byteView = true

// floatBytes views v's memory as its 8·len(v) bytes.
func floatBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}
