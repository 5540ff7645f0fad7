package twopcp_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/factorsnap"
	"twopcp/internal/mat"
	"twopcp/internal/runstate"
	"twopcp/internal/tensor"
	"twopcp/internal/tfile"
)

// TestFormatBytesPinned writes every magic-tagged on-disk format, and the
// checkpoint manifest, from a fixed input and compares the SHA-256 of the
// bytes with a digest recorded from the code that defined the layout. A
// refactor of any codec must leave these digests alone; a deliberate format
// change updates the one digest it moves, together with the format's version
// or magic. Gzip-compressed tiles are left out: compress/flate's output is
// not guaranteed to match across Go releases.
func TestFormatBytesPinned(t *testing.T) {
	got := writeEveryFormat(t)
	for _, tc := range []struct{ name, sha256 string }{
		{".tpdn", "0f09f90938c72fb5541805350e6fad33aacd92cb0f28adb4b6dc7e1c4bb2540b"},
		{".tpsp", "1d489ad4c22f2e82cec4122c51a510caebcd7e303e8fbc9c3dfda2a4b8269f3d"},
		{".tptl", "af76da2a13a1e2f7e2418f9cf3f5ea324434cc098adada576455d40913892624"},
		{"TPU2 unit", "4798f96d8f7a1b3d2e5e20a06660f1a9b796c5fd7913b7107b2acee87144ee16"},
		{"TPFS snapshot", "a23ca44d7533149079e95fb3dd97222fdf658a1d1d5dd933f7de0d247572a5f6"},
		{"manifest.json", "ee0cf8f808bfa3766e9c670fc0372696887ec7c5bb26e895eef3bf6f902beb94"},
		{"TP1B log record", "429a03232f577d613077b893250e0d766d0ab67402fd629d81ebe4aa3780ee96"},
		{"TP2S slot", "c7614ef1c89b2ffbc90262726f33e669179b238769d927feaf3333cac8c54196"},
		{"result.ckpt", "5f2d48cf9f33537f3f6e771f1ba9836b13086fb39aa8091a66dd88e28af035bd"},
	} {
		b, ok := got[tc.name]
		if !ok {
			t.Errorf("%s: not written", tc.name)
			continue
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != tc.sha256 {
			t.Errorf("%s: %d bytes with SHA-256 %x, want %s", tc.name, len(b), sum, tc.sha256)
		}
	}
}

// pinMatrix is a rows×cols matrix of values fixed by their position, with
// signs, exact fractions and full-mantissa thirds mixed in.
func pinMatrix(rows, cols, salt int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float64((i*7+salt)%11-5) / 3
	}
	return m
}

// writeEveryFormat returns the bytes of each pinned format, keyed by the
// names TestFormatBytesPinned uses.
func writeEveryFormat(t *testing.T) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	read := func(elem ...string) []byte {
		b, err := os.ReadFile(filepath.Join(append([]string{dir}, elem...)...))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	out := map[string][]byte{}

	x := tensor.NewDense(5, 4, 3)
	copy(x.Data, pinMatrix(1, len(x.Data), 1).Data)
	var buf bytes.Buffer
	check(tensor.WriteDense(&buf, x))
	out[".tpdn"] = append([]byte(nil), buf.Bytes()...)

	coo := tensor.NewCOO(6, 5, 4)
	for p := 0; p < 9; p++ {
		coo.Append([]int{p % 6, (p * 3) % 5, (p * 5) % 4}, float64(p-4)/3)
	}
	buf.Reset()
	check(tensor.WriteCOO(&buf, coo))
	out[".tpsp"] = append([]byte(nil), buf.Bytes()...)

	w, err := tfile.Create(filepath.Join(dir, "x.tptl"), x.Dims, []int{2, 2, 1})
	check(err)
	p := w.Pattern()
	for _, vec := range p.Positions() {
		from, size := p.Block(vec)
		check(w.WriteTile(vec, x.SubTensor(from, size)))
	}
	check(w.Close())
	out[".tptl"] = read("x.tptl")

	buf.Reset()
	check(blockstore.EncodeUnit(&buf, &blockstore.Unit{Mode: 1, Part: 2, A: pinMatrix(3, 2, 2), Slab: pinMatrix(3, 6, 3)}))
	out["TPU2 unit"] = append([]byte(nil), buf.Bytes()...)

	meta := runstate.Meta{
		InputKind: "dense", Dims: x.Dims, Partitions: []int{2, 2, 1},
		Rank: 2, Schedule: "HO", Replacement: "FOR", BufferFraction: 0.5,
		MaxIters: 20, Tol: 1e-2, Seed: 3, Stitch: 1,
	}
	factors := []*mat.Matrix{pinMatrix(5, 2, 4), pinMatrix(4, 2, 5), pinMatrix(3, 2, 6)}
	check(factorsnap.Write(filepath.Join(dir, "factors.snap"), []float64{1.5, -0.25}, factors, &meta))
	out["TPFS snapshot"] = read("factors.snap")

	rs, err := runstate.Open(filepath.Join(dir, "ck"), meta, 4, false)
	check(err)
	check(rs.SaveBlock(3, []*mat.Matrix{pinMatrix(2, 2, 7), pinMatrix(2, 2, 8), pinMatrix(3, 2, 9)}, 0.75))
	out["TP1B log record"] = read("ck", "p1-blocks.log")
	check(rs.BeginPhase2())
	check(rs.SavePhase2(&runstate.Phase2State{
		Progress: runstate.Progress{
			NextStep: 5, Pos: 7, Updates: 12, VirtualIters: 1, FitTrace: []float64{0.5, 0.625}, PrevFit: 0.5,
		},
		Buffer: runstate.BufferState{Cursor: 3},
		A:      [][]*mat.Matrix{{pinMatrix(3, 2, 10), pinMatrix(2, 2, 11)}, {pinMatrix(2, 2, 12)}, {pinMatrix(3, 2, 13)}},
	}))
	out["TP2S slot"] = read("ck", "phase2-0.ckpt")
	check(rs.SaveResult(&runstate.ResultState{
		Fit: 0.875, VirtualIters: 2, Converged: true, FitTrace: []float64{0.5, 0.625, 0.875},
		Swaps: 9, SwapsPerIter: 4.5, Blocks: 4, Factors: factors,
	}))
	out["result.ckpt"] = read("ck", "result.ckpt")
	out["manifest.json"] = read("ck", "manifest.json")
	return out
}
