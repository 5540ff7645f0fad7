package runstate

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"twopcp/internal/mat"
)

// FuzzResultFile feeds arbitrary bytes to the result.ckpt decoder.
// Contract: never a panic, never an allocation the input's size does not
// back, and every rejection wraps ErrCorrupt.
//
// Seeds: a file SaveResult wrote, the same file truncated, one with its CRC
// flipped, and a validly framed one whose header declares 2^31 factors.
func FuzzResultFile(f *testing.F) {
	dir := f.TempDir()
	rs, err := Open(dir, testMeta(), 8, false)
	if err != nil {
		f.Fatal(err)
	}
	st := &ResultState{
		Fit: 0.875, FitTrace: []float64{0.5, 0.875}, Swaps: 9,
		Factors: []*mat.Matrix{mat.New(3, 2), mat.New(4, 2)},
	}
	if err := rs.SaveResult(st); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, "result.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[4] ^= 0xff
	f.Add(flipped)
	huge, err := appendSection(make([]byte, frameHeaderLen), "result", resultHeader{NFactors: 1 << 31}, nil)
	if err != nil {
		f.Fatal(err)
	}
	frame(resultMagic, huge)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		var err error
		allocBounded(t, len(data), func() { _, err = decodeResult(data) })
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
		}
	})
}
