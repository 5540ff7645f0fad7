package factorsnap_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"twopcp/internal/factorsnap"
	"twopcp/internal/mat"
	"twopcp/internal/serve"
)

// FuzzFactorsnapOpen writes arbitrary bytes to a file and opens it.
// Contract: Open fails with a typed error (ErrCorrupt or ErrVersion) or
// returns a snapshot that serve.New accepts and that answers a cell, a
// top-k and an nn query; it never panics. Each input is also tried
// reframed, its CRCs made valid, so the fuzzer's changes to the header's
// dims, rank and λ reach the checks that sit behind the CRCs.
//
// The seed corpus is a written snapshot, cuts of it, and headers whose
// dims overflow the data size they imply (in testdata/fuzz too).
func FuzzFactorsnapOpen(f *testing.F) {
	dir := f.TempDir()
	good := filepath.Join(dir, "good.snap")
	a, b := mat.New(3, 2), mat.New(4, 2)
	for i := range a.Data {
		a.Data[i] = float64(i) - 2.5
	}
	copy(b.Data, []float64{1, -1, 0.5, 2, -3, 0, 4, 1e-300})
	if err := factorsnap.Write(good, []float64{1.5, -0.25}, []*mat.Matrix{a, b}, nil); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, keep := range []int{0, 4, 15, 16, 40, len(raw) - 8, len(raw) - 1} {
		f.Add(raw[:keep])
	}
	f.Add(frame([]byte(`{"dims":[2305843009213693952],"rank":1,"lambda":[1],"data_crc32":0}`), nil))
	f.Add(frame([]byte(`{"dims":[4611686018427387904,2],"rank":2,"lambda":[1,1],"data_crc32":0}`), nil))

	path := filepath.Join(dir, "fuzz.snap")
	f.Fuzz(func(t *testing.T, raw []byte) {
		openAndServe(t, path, raw)
		if fixed := reframe(raw); fixed != nil {
			openAndServe(t, path, fixed)
		}
	})
}

// openAndServe writes raw to path, opens it, and serves a few queries
// from what it opens.
func openAndServe(t *testing.T, path string, raw []byte) {
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := factorsnap.Open(path)
	if err != nil {
		if !errors.Is(err, factorsnap.ErrCorrupt) && !errors.Is(err, factorsnap.ErrVersion) {
			t.Fatalf("Open: untyped error %v", err)
		}
		return
	}
	defer s.Close()
	mdl, err := serve.New(s.Lambda, s.Factors, serve.Config{})
	if err != nil {
		t.Fatalf("serve.New refuses an opened snapshot: %v", err)
	}
	at := make([]int, len(s.Dims))
	for n, d := range s.Dims {
		if d == 0 {
			return
		}
		if _, err := mdl.TopK(n, at, 3, nil); err != nil {
			t.Fatalf("TopK(mode %d): %v", n, err)
		}
		if _, err := mdl.NN(n, d-1, 3, nil); err != nil {
			t.Fatalf("NN(mode %d): %v", n, err)
		}
	}
	if _, err := mdl.Reconstruct(at); err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
}

// frame lays out a snapshot around header JSON hdr and data section data:
// magic, version, the header's length and CRC, the header, padding to 8.
func frame(hdr, data []byte) []byte {
	out := binary.LittleEndian.AppendUint32([]byte(factorsnap.Magic), factorsnap.Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(hdr))
	out = append(out, hdr...)
	out = append(out, make([]byte, -len(out)&7)...)
	return append(out, data...)
}

// reframe returns raw with valid CRCs: its header JSON with data_crc32 set
// to the CRC of what follows it, framed anew. Magic and version are kept
// as raw has them. It returns nil when raw has no JSON object where the
// header belongs.
func reframe(raw []byte) []byte {
	if len(raw) < 16 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(raw[8:]))
	if n > len(raw)-16 {
		return nil
	}
	var hdr map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw[16 : 16+n]))
	dec.UseNumber()
	if dec.Decode(&hdr) != nil || hdr == nil {
		return nil
	}
	data := raw[min(len(raw), (16+n+7)&^7):]
	hdr["data_crc32"] = crc32.ChecksumIEEE(data)
	js, err := json.Marshal(hdr)
	if err != nil {
		return nil
	}
	out := frame(js, data)
	copy(out, raw[:8])
	return out
}
