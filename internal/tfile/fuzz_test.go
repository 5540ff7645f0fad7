package tfile

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twopcp/internal/tensor"
)

// FuzzTFileReader drives the .tptl header/index parser and the tile
// decoder with arbitrary bytes. Contract: NewReader/ReadTile may reject
// input with an error but must never panic, and every allocation they
// make before full validation is bounded by the input's actual size (the
// header and index checks in NewReader, sanePayload for tile payloads).
//
// The seed corpus holds valid files in all flag combinations plus the
// corrupt-header mutations from the reader regression tests
// (TestReaderRejectsCorruptHeaders / TestReaderDetectsPayloadCorruption).
func FuzzTFileReader(f *testing.F) {
	build := func(gz, crc bool) []byte {
		dir := f.TempDir()
		path := filepath.Join(dir, "seed.tptl")
		var opts []WriterOption
		if gz {
			opts = append(opts, WithGzip())
		}
		if !crc {
			opts = append(opts, WithoutCRC())
		}
		w, err := Create(path, []int{5, 4, 3}, []int{2, 2, 1}, opts...)
		if err != nil {
			f.Fatal(err)
		}
		x := tensor.RandomDense(rand.New(rand.NewSource(3)), 5, 4, 3)
		p := w.Pattern()
		for _, vec := range p.Positions() {
			from, size := p.Block(vec)
			if err := w.WriteTile(vec, x.SubTensor(from, size)); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for _, v := range []struct{ gz, crc bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		valid := build(v.gz, v.crc)
		f.Add(valid)
		f.Add(valid[:len(valid)/2]) // truncated mid-index/payload
		// Flip the version, flags and a mid-file payload byte.
		for _, off := range []int{5, 8, len(valid) - 9} {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
	}
	// Header-only inputs: implausible mode count, zero dims, absurd tiling.
	hdr := []byte(Magic)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, 3)
	for i := 0; i < 3; i++ {
		hdr = binary.LittleEndian.AppendUint64(hdr, 1<<40)
	}
	for i := 0; i < 3; i++ {
		hdr = binary.LittleEndian.AppendUint32(hdr, 1)
	}
	f.Add(hdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.tptl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			return
		}
		defer r.Close()
		// A file that parses must serve (or cleanly reject) every tile.
		for id := 0; id < r.Tiling().NumBlocks(); id++ {
			if tile, err := r.ReadTile(r.Tiling().Unlinear(id, nil)); err == nil && tile == nil {
				t.Fatalf("tile %d: nil tile without error", id)
			}
		}
	})
}
