package runstate

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzRunstateManifest feeds arbitrary bytes to the manifest loader
// through the real resume path (Open with resume=true). Contract: a
// corrupt, truncated or hostile manifest.json must surface as an error —
// ErrCorrupt, ErrMismatch, ErrVersion or a version error — never as a panic,
// and a manifest that does load must carry a stage the state machine knows.
//
// The seed corpus mirrors the truncated/corrupt-manifest regression tests:
// a valid manifest, CRC and body mutations, version skew, bad stages and
// non-JSON noise.
func FuzzRunstateManifest(f *testing.F) {
	meta := Meta{InputKind: "dense", Dims: []int{4, 4}, Partitions: []int{2, 2}, Rank: 2, Seed: 7}
	dir := f.TempDir()
	if _, err := Open(dir, meta, 4, false); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated JSON
	f.Add([]byte("{}"))
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{"version":1,"crc32":0,"body":{}}`))
	f.Add([]byte(`{"version":2,"crc32":0,"body":{}}`))
	f.Add([]byte(`{"version":99,"crc32":0,"body":{}}`))
	// Well-framed envelope (correct CRC) around a hostile body.
	for _, body := range []string{
		`{"meta":{},"stage":"phase9","num_blocks":4}`,
		`{"meta":{"dims":[-1]},"stage":"phase1","num_blocks":-3}`,
		`{"meta":{"constraint":"nonneg","lambda":1e308},"stage":"done","num_blocks":4}`,
	} {
		env, err := json.Marshal(envelope{Version: Version, CRC32: crc32.ChecksumIEEE([]byte(body)), Body: []byte(body)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, meta, 4, true)
		if err != nil {
			return
		}
		switch r.Stage() {
		case StagePhase1, StagePhase2, StageDone:
		default:
			t.Fatalf("loaded manifest with unknown stage %q", r.Stage())
		}
	})
}

// allocBounded runs fn and fails if it allocated out of proportion to the
// inputLen bytes it was given: a decoder may size things only by bytes that
// are really there, never by what a header claims.
func allocBounded(t *testing.T, inputLen int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*inputLen+1<<20); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, more than %d", inputLen, got, limit)
	}
}

// sealed frames payload as a valid record, so the fuzzer reaches the
// decoders behind the CRC.
func sealed(magic string, payload []byte) []byte {
	b := append(make([]byte, recordHeaderLen), payload...)
	sealRecord(magic, b)
	return b
}

// FuzzBlockLog feeds arbitrary bytes to the resume path as p1-blocks.log
// (raw, or — wrap — as the payload of one validly framed record). Contract:
// never a panic or an error, never an allocation the file's size does not
// back; Open leaves exactly the valid prefix on disk; and every block that
// loads re-encodes to the record it was loaded from.
func FuzzBlockLog(f *testing.F) {
	dir := f.TempDir()
	rs, err := Open(dir, testMeta(), 8, false)
	if err != nil {
		f.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if err := rs.SaveBlock(id, blockFactors(int64(id)), 0.5); err != nil {
			f.Fatal(err)
		}
	}
	rs.Close()
	valid, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 1
	f.Add(valid, false)
	f.Add(valid[:len(valid)-9], false)
	f.Add(flipped, false)
	f.Add([]byte{}, false)
	f.Add(valid[recordHeaderLen:len(valid)/3], true) // one record's payload
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, true)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f}, true)

	f.Fuzz(func(t *testing.T, data []byte, wrap bool) {
		if wrap {
			data = sealed(blockMagic, data)
		}
		dir := t.TempDir()
		fresh, err := Open(dir, testMeta(), 8, false)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Close()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		allocBounded(t, len(data), func() {
			rs, err := Open(dir, testMeta(), 8, true)
			if err != nil {
				t.Fatalf("resume over a damaged log: %v", err)
			}
			defer rs.Close()
			kept, err := os.ReadFile(path)
			if err != nil || int64(len(kept)) != rs.logEnd || !bytes.Equal(kept, data[:len(kept)]) {
				t.Fatalf("log on disk is %d bytes, index ends at %d (%v)", len(kept), rs.logEnd, err)
			}
			for id, rec := range rs.blocks {
				factors, fit, ok, err := rs.LoadBlock(id)
				if err != nil {
					t.Fatalf("LoadBlock(%d): %v", id, err)
				}
				if !ok {
					continue
				}
				again := t.TempDir()
				rs2, err := Open(again, testMeta(), 8, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := rs2.SaveBlock(id, factors, fit); err != nil {
					t.Fatal(err)
				}
				rs2.Close()
				if got, _ := os.ReadFile(filepath.Join(again, logName)); !bytes.Equal(got, kept[rec.off:rec.off+int64(rec.n)]) {
					t.Fatalf("block %d does not re-encode to its record", id)
				}
			}
		})
	})
}

// FuzzPhase2Slots feeds two arbitrary byte strings to LoadPhase2 as the
// slot files; mode picks, per slot, raw bytes, a validly framed record
// around them, or no file, and (bit 4) whether the two saves below are
// each synced. Contract: never a panic, never an allocation the files'
// sizes do not back; and a checkpoint that loads can be saved, never over
// the slot holding the newest synced checkpoint, loads again, and
// re-encodes to itself.
func FuzzPhase2Slots(f *testing.F) {
	dir := f.TempDir()
	rs, err := Open(dir, testMeta(), 8, false)
	if err != nil {
		f.Fatal(err)
	}
	for step := 1; step <= 2; step++ {
		if err := rs.SavePhase2(phase2Sample(step)); err != nil {
			f.Fatal(err)
		}
	}
	rs.Close()
	var valid [numSlots][]byte
	for i := range valid {
		if valid[i], err = os.ReadFile(filepath.Join(dir, slotName(i))); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid[0], valid[1], uint8(0))
	f.Add(valid[0], valid[1], uint8(1<<4))
	f.Add(valid[0], valid[1][:len(valid[1])/2], uint8(0))
	f.Add(valid[0][:7], valid[1], uint8(1<<4))
	f.Add(valid[0], []byte{}, uint8(2<<2))
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add(valid[0][recordHeaderLen:], valid[1][recordHeaderLen:], uint8(1|1<<2))
	hostile := binary.LittleEndian.AppendUint32(make([]byte, 8), 13)
	hostile = append(hostile, `{"a_parts":[1]}`...)
	f.Add(append(hostile, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f), []byte{}, uint8(1|2<<2))

	f.Fuzz(func(t *testing.T, a, b []byte, mode uint8) {
		dir := t.TempDir()
		fresh, err := Open(dir, testMeta(), 8, false)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Close()
		for i, data := range [numSlots][]byte{a, b} {
			switch mode >> (2 * i) & 3 {
			case 1:
				data = sealed(phase2Magic, data)
			case 2:
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, slotName(i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		syncEach := mode&(1<<4) != 0
		allocBounded(t, len(a)+len(b), func() {
			rs, probe := openProbed(t, dir, true)
			st, ok, err := rs.LoadPhase2()
			if err != nil || !ok {
				return
			}
			// The resumed Open synced what it found, so the checkpoint just
			// loaded is the newest synced one.
			synced := rs.newest
			// Two generations of save-and-load: the first may normalise a
			// foreign writer's JSON, the second must change nothing.
			var gen [2][]byte
			for g := range gen {
				if syncEach {
					probe.advance()
				}
				before := probe.syncs[slotName(1-synced)]
				if err := rs.SavePhase2(st); err != nil {
					t.Fatal(err)
				}
				if rs.newest == synced {
					t.Fatal("save went to the slot holding the newest synced checkpoint")
				}
				if probe.syncs[slotName(rs.newest)] > before {
					synced = rs.newest
				}
				rec, err := os.ReadFile(filepath.Join(dir, slotName(rs.newest)))
				if err != nil {
					t.Fatal(err)
				}
				payload, ok := parseRecord(phase2Magic, rec)
				if !ok {
					t.Fatal("a checkpoint just saved does not parse")
				}
				gen[g] = payload[8:]
				if st, ok, err = rs.LoadPhase2(); err != nil || !ok {
					t.Fatalf("a checkpoint just saved does not load: ok=%v err=%v", ok, err)
				}
			}
			if !bytes.Equal(gen[0], gen[1]) {
				t.Fatal("a loaded checkpoint does not re-encode to itself")
			}
		})
	})
}
