package runstate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twopcp/internal/mat"
)

// Rename never had to think about torn writes: a file was whole or absent.
// The block log and the Phase-2 slots are written in place, so these tests
// put every shape of partial write a crash can leave into them and check
// what loads.

func blockFactors(seed int64) []*mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	return []*mat.Matrix{mat.Random(4, 3, rng), mat.Random(5, 3, rng), mat.Random(2, 3, rng)}
}

func phase2Sample(step int) *Phase2State {
	rng := rand.New(rand.NewSource(int64(step)))
	return &Phase2State{
		Progress: Progress{NextStep: step, Pos: step, FitTrace: []float64{0.25, 0.5}, PrevFit: 0.5},
		A:        [][]*mat.Matrix{{mat.Random(4, 3, rng), mat.Random(4, 3, rng)}, {mat.Random(8, 3, rng)}},
	}
}

func mustOpen(t *testing.T, dir string, resume bool) *Run {
	t.Helper()
	rs, err := Open(dir, testMeta(), 8, resume)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPhase2SlotDamage applies each shape of damage to the slot holding
// the newest checkpoint after one to four saves, with a sync between every
// save and with none. No save may overwrite the slot holding the newest
// synced checkpoint, so the other slot always holds a synced one: the
// damaged run must load it (ErrCorrupt when there is no other slot), and
// the next save must land on the damaged slot, never on the survivor.
func TestPhase2SlotDamage(t *testing.T) {
	jsonAt := recordHeaderLen + 8 + 4 // record header, sequence number, JSON length
	cases := []struct {
		name   string
		damage func(rec []byte) []byte
		whole  bool // the newest checkpoint still loads
	}{
		{"cut-at-0", func(rec []byte) []byte { return nil }, false},
		{"zeroed", func(rec []byte) []byte { return make([]byte, len(rec)) }, false},
		{"cut-in-record-header", func(rec []byte) []byte { return rec[:10] }, false},
		{"cut-in-json", func(rec []byte) []byte { return rec[:jsonAt+20] }, false},
		{"cut-in-matrices", func(rec []byte) []byte { return rec[:len(rec)-20] }, false},
		{"bit-flip", func(rec []byte) []byte { rec[len(rec)/2] ^= 0x04; return rec }, false},
		{"bit-flip-in-length", func(rec []byte) []byte { rec[5] ^= 0x01; return rec }, false},
		{"stale-bytes-past-len", func(rec []byte) []byte { return append(rec, bytes.Repeat([]byte{0xA5}, 300)...) }, true},
	}
	for _, tc := range cases {
		for _, saves := range []int{1, 2, 3, 4} {
			for _, syncEach := range []bool{false, true} {
				name := fmt.Sprintf("%s after %d saves (sync each: %v)", tc.name, saves, syncEach)
				dir := t.TempDir()
				rs, probe := openProbed(t, dir, false)
				// held is the step each slot file holds, synced the step it
				// held at its last sync; 0 is none.
				var held, synced [numSlots]int
				for step := 1; step <= saves; step++ {
					if syncEach {
						probe.advance()
					}
					var before [numSlots]int
					for i := range before {
						before[i] = probe.syncs[slotName(i)]
					}
					newestSynced := 0
					if synced[1] > synced[0] {
						newestSynced = 1
					}
					savePhase2(t, rs, step)
					if synced[newestSynced] > 0 && rs.newest == newestSynced {
						t.Fatalf("%s: step %d overwrote the slot holding the newest synced checkpoint", name, step)
					}
					held[rs.newest] = step
					for i := range synced {
						if step == 1 || probe.syncs[slotName(i)] > before[i] {
							synced[i] = held[i]
						}
					}
				}
				newest, other := rs.newest, 1-rs.newest
				if held[other] != synced[other] {
					t.Fatalf("%s: slot %d holds step %d but was synced at step %d", name, other, held[other], synced[other])
				}
				// The crash: the first handle is never closed.
				path := filepath.Join(dir, slotName(newest))
				writeFile(t, path, tc.damage(readFile(t, path)))
				var survivor []byte
				if held[other] > 0 {
					survivor = readFile(t, filepath.Join(dir, slotName(other)))
				}

				rs2 := mustOpen(t, dir, true)
				st, ok, err := rs2.LoadPhase2()
				switch {
				case tc.whole:
					if err != nil || !ok || st.NextStep != saves {
						t.Fatalf("%s: got %+v ok=%v err=%v, want step %d", name, st, ok, err, saves)
					}
					continue
				case held[other] == 0:
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s with no other slot: ok=%v err=%v, want ErrCorrupt", name, ok, err)
					}
					continue
				case err != nil || !ok || st.NextStep != held[other]:
					t.Fatalf("%s: got %+v ok=%v err=%v, want step %d", name, st, ok, err, held[other])
				}
				if err := rs2.SavePhase2(phase2Sample(40)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(readFile(t, filepath.Join(dir, slotName(other))), survivor) {
					t.Fatalf("%s: the save after a fallback wrote over the surviving slot", name)
				}
				rs2.Close()
				if st, ok, err := mustOpen(t, dir, true).LoadPhase2(); err != nil || !ok || st.NextStep != 40 {
					t.Fatalf("%s: after fallback and save, reopened: %+v ok=%v err=%v", name, st, ok, err)
				}
			}
		}
	}
}

// TestPhase2EqualSequenceNumbers: two valid slots with one sequence number
// is a state this package never writes; the choice must at least be fixed.
func TestPhase2EqualSequenceNumbers(t *testing.T) {
	dir := t.TempDir()
	rs := mustOpen(t, dir, false)
	for step := 1; step <= 2; step++ {
		if err := rs.SavePhase2(phase2Sample(step)); err != nil {
			t.Fatal(err)
		}
	}
	rs.Close()
	// Re-seal slot 1 (sequence 2) under slot 0's sequence number.
	rec := readFile(t, filepath.Join(dir, slotName(1)))
	binary.LittleEndian.PutUint64(rec[recordHeaderLen:], 1)
	sealRecord(phase2Magic, rec)
	writeFile(t, filepath.Join(dir, slotName(1)), rec)
	st, ok, err := mustOpen(t, dir, true).LoadPhase2()
	if err != nil || !ok || st.NextStep != 1 {
		t.Fatalf("equal sequence numbers: %+v ok=%v err=%v, want slot 0's step 1", st, ok, err)
	}
}

// TestPhase2SequenceContinuesAcrossResume: a resumed run numbers its
// checkpoints after the one it loaded, whichever slot that was in.
func TestPhase2SequenceContinuesAcrossResume(t *testing.T) {
	dir := t.TempDir()
	step := 0
	for round := 0; round < 4; round++ {
		rs := mustOpen(t, dir, round > 0)
		if round > 0 {
			if st, ok, err := rs.LoadPhase2(); err != nil || !ok || st.NextStep != step {
				t.Fatalf("round %d: loaded %+v ok=%v err=%v, want step %d", round, st, ok, err, step)
			}
		}
		for i := 0; i <= round; i++ { // an odd and an even number of saves per round
			step++
			if err := rs.SavePhase2(phase2Sample(step)); err != nil {
				t.Fatal(err)
			}
		}
		rs.Close()
	}
}

// TestBlockLogDamage tears the last of three records at every field
// boundary (and inside every field): the two before it survive, the cut is
// removed on reopen, and a record appended afterwards is readable after
// another reopen.
func TestBlockLogDamage(t *testing.T) {
	dir := t.TempDir()
	rs := mustOpen(t, dir, false)
	for id := 0; id < 3; id++ {
		if err := rs.SaveBlock(id, blockFactors(int64(id)), float64(id)/4); err != nil {
			t.Fatal(err)
		}
	}
	rs.Close()
	whole := readFile(t, filepath.Join(dir, logName))
	if len(whole)%3 != 0 {
		t.Fatalf("three equal records make a %d-byte log", len(whole))
	}
	n := len(whole) / 3
	// magic | length | crc | id | fit | modes | matrix shape | matrix data
	cuts := []int{0, 2, 4, 8, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40, 44, n / 2, n - 8, n - 1}
	for _, cut := range cuts {
		dir := t.TempDir()
		mustOpen(t, dir, false).Close()
		path := filepath.Join(dir, logName)
		writeFile(t, path, whole[:2*n+cut])

		rs := mustOpen(t, dir, true)
		if got := rs.Phase1Completed(); got != 2 {
			t.Fatalf("cut at +%d: %d blocks indexed, want 2", cut, got)
		}
		if _, _, ok, err := rs.LoadBlock(2); ok || err != nil {
			t.Fatalf("cut at +%d: torn block 2: ok=%v err=%v", cut, ok, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(2*n) {
			t.Fatalf("cut at +%d: log is %d bytes after reopen, want %d (%v)", cut, fi.Size(), 2*n, err)
		}
		if err := rs.SaveBlock(2, blockFactors(2), 0.5); err != nil {
			t.Fatal(err)
		}
		rs.Close()
		if !bytes.Equal(readFile(t, path), whole) {
			t.Fatalf("cut at +%d: recomputed block did not restore the log", cut)
		}
		rs = mustOpen(t, dir, true)
		for id := 0; id < 3; id++ {
			got, fit, ok, err := rs.LoadBlock(id)
			if err != nil || !ok || fit != float64(id)/4 || !got[1].Equal(blockFactors(int64(id))[1]) {
				t.Fatalf("cut at +%d: block %d after append and reopen: ok=%v err=%v fit=%v", cut, id, ok, err, fit)
			}
		}
	}

	// A bit flipped in the middle record ends the log there: the record
	// after it is lost with it, and recomputed like any other.
	t.Run("mid-file-bit-flip", func(t *testing.T) {
		dir := t.TempDir()
		mustOpen(t, dir, false).Close()
		flipped := append([]byte(nil), whole...)
		flipped[n+n/2] ^= 0x80
		writeFile(t, filepath.Join(dir, logName), flipped)
		rs := mustOpen(t, dir, true)
		if _, _, ok, _ := rs.LoadBlock(0); !ok || rs.Phase1Completed() != 1 {
			t.Fatalf("block 0 ok=%v, %d indexed; want true, 1", ok, rs.Phase1Completed())
		}
		if fi, _ := os.Stat(filepath.Join(dir, logName)); fi.Size() != int64(n) {
			t.Fatalf("log is %d bytes, want %d", fi.Size(), n)
		}
	})

	// Of two records for one id the later wins; a record for an id the run
	// has no block for is stepped over, not a reason to stop.
	t.Run("duplicate-and-foreign-ids", func(t *testing.T) {
		dir := t.TempDir()
		rs := mustOpen(t, dir, false)
		for _, rec := range []struct {
			id  int
			fit float64
		}{{1, 0.25}, {99, 0.5}, {1, 0.75}, {2, 1}} {
			if err := rs.SaveBlock(rec.id, blockFactors(1), rec.fit); err != nil {
				t.Fatal(err)
			}
		}
		rs.Close()
		rs = mustOpen(t, dir, true)
		if got := rs.Phase1Completed(); got != 2 {
			t.Fatalf("%d blocks indexed, want 2 (ids 1 and 2)", got)
		}
		if _, fit, ok, err := rs.LoadBlock(1); !ok || err != nil || fit != 0.75 {
			t.Fatalf("duplicate id: fit=%v ok=%v err=%v, want the later record's 0.75", fit, ok, err)
		}
		if _, _, ok, _ := rs.LoadBlock(2); !ok {
			t.Fatal("record after a foreign id is unreachable")
		}
		if _, _, ok, _ := rs.LoadBlock(99); ok {
			t.Fatal("record for a block the run does not have was loaded")
		}
	})
}

// TestCheckpointsCreateNoFiles is the counting double for the point of the
// layout: past the first use of the log and of each slot, a checkpoint
// creates, renames and removes nothing — the directory holds the same five
// inodes however many are taken.
func TestCheckpointsCreateNoFiles(t *testing.T) {
	dir := t.TempDir()
	rs := mustOpen(t, dir, false)
	save := func(i int) {
		t.Helper()
		if err := rs.SaveBlock(i%8, blockFactors(int64(i)), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := rs.SavePhase2(phase2Sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	save(1)
	save(2)
	stat := func() map[string]os.FileInfo {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		infos := make(map[string]os.FileInfo)
		for _, e := range entries {
			if infos[e.Name()], err = e.Info(); err != nil {
				t.Fatal(err)
			}
		}
		return infos
	}
	before := stat()
	for _, name := range []string{"manifest.json", logName, slotName(0), slotName(1)} {
		if before[name] == nil {
			t.Fatalf("no %s after two checkpoints of each kind (have %d entries)", name, len(before))
		}
	}
	if len(before) != 4 {
		t.Fatalf("%d directory entries, want 4", len(before))
	}
	for i := 3; i < 40; i++ {
		save(i)
	}
	after := stat()
	if len(after) != len(before) {
		t.Fatalf("%d directory entries after 37 more checkpoints of each kind, %d before", len(after), len(before))
	}
	for name, fi := range before {
		if !os.SameFile(fi, after[name]) {
			t.Errorf("%s was replaced by a new file", name)
		}
	}
	if st, ok, err := rs.LoadPhase2(); err != nil || !ok || st.NextStep != 39 {
		t.Fatalf("after 39 saves: %+v ok=%v err=%v", st, ok, err)
	}
}

// copyFixture copies a testdata directory somewhere Open may write.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(filepath.Join("testdata", name))); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestVersion1Directories opens the two fixture directories written by the
// last build of the version-1 layout (one file per block, one phase2.ckpt).
func TestVersion1Directories(t *testing.T) {
	meta := Meta{
		InputKind: "dense", Dims: []int{4, 4, 4}, Partitions: []int{2, 1, 1},
		Rank: 2, Schedule: "HO", Replacement: "FOR", BufferFraction: 0.5,
		MaxIters: 5, Tol: 1e-2, Seed: 3,
	}
	t.Run("unfinished", func(t *testing.T) {
		dir := copyFixture(t, "v1-unfinished")
		_, err := Open(dir, meta, 2, true)
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("resume of an unfinished version-1 run: %v, want ErrVersion", err)
		}
		for _, want := range []string{"version 1", "version 2"} {
			if !bytes.Contains([]byte(err.Error()), []byte(want)) {
				t.Errorf("error %q does not name %s", err, want)
			}
		}
		// It is refused, not cleaned: its checkpoints are still there for
		// the build that can read them.
		if _, err := os.Stat(filepath.Join(dir, "phase2.ckpt")); err != nil {
			t.Errorf("refused resume disturbed the directory: %v", err)
		}
		if got, err := ReadMeta(dir); err != nil || got.Seed != 3 {
			t.Errorf("ReadMeta: %+v, %v", got, err)
		}
	})
	t.Run("finished", func(t *testing.T) {
		dir := copyFixture(t, "v1-done")
		rs, err := Open(dir, meta, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		if rs.Stage() != StageDone {
			t.Fatalf("stage = %q", rs.Stage())
		}
		st, err := rs.LoadResult()
		if err != nil || st.Fit != 0.875 || st.VirtualIters != 3 || len(st.Factors) != 3 || st.Factors[2].Rows != 4 {
			t.Fatalf("LoadResult: %+v, %v", st, err)
		}
		if st, err := ReadResult(dir); err != nil || st.Swaps != 6 {
			t.Fatalf("ReadResult: %+v, %v", st, err)
		}
		if got, err := ReadMeta(dir); err != nil || got.Rank != 2 {
			t.Fatalf("ReadMeta: %+v, %v", got, err)
		}
	})
}
