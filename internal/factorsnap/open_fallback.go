//go:build !(unix && (amd64 || arm64 || riscv64 || ppc64le || loong64 || 386 || arm || mipsle || mips64le))

// Portable open path: read the whole file and decode factor values onto
// the heap. Used on windows and on big-endian platforms where the on-disk
// little-endian layout cannot be reinterpreted in place.

package factorsnap

import (
	"os"

	"twopcp/internal/mat"
)

// openBytes reads the whole file; mapped is false.
func openBytes(path string) (raw []byte, cleanup func() error, mapped bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false, err
	}
	return b, nil, false, nil
}

// floatView decodes b onto the heap: here the file's bytes are not the
// host's float64s.
func floatView(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	mat.DecodeFloats(v, b)
	return v
}
