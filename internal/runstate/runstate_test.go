package runstate

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/mat"
)

func testMeta() Meta {
	return Meta{
		InputKind: "dense", Dims: []int{16, 16, 16}, Partitions: []int{2, 2, 2},
		Rank: 4, Schedule: "HO", Replacement: "FOR", BufferFraction: 0.5,
		MaxIters: 20, Tol: 1e-2, Seed: 3,
	}
}

func TestManifestLifecycle(t *testing.T) {
	dir := t.TempDir()
	rs, err := Open(dir, testMeta(), 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stage() != StagePhase1 {
		t.Fatalf("fresh run stage = %q", rs.Stage())
	}

	// A second fresh open must refuse the existing manifest.
	if _, err := Open(dir, testMeta(), 8, false); !errors.Is(err, ErrExists) {
		t.Fatalf("fresh open over existing manifest: %v", err)
	}

	// Resume sees the same state.
	rs2, err := Open(dir, testMeta(), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Stage() != StagePhase1 || rs2.Phase1Completed() != 0 {
		t.Fatalf("resumed stage=%q completed=%d", rs2.Stage(), rs2.Phase1Completed())
	}

	// Stage transition survives reopen.
	if err := rs2.BeginPhase2(); err != nil {
		t.Fatal(err)
	}
	rs3, err := Open(dir, testMeta(), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if rs3.Stage() != StagePhase2 {
		t.Fatalf("stage after BeginPhase2 reopen = %q", rs3.Stage())
	}
}

func TestResumeValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, testMeta(), 8, true); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("resume without manifest: %v", err)
	}
	if _, err := Open(dir, testMeta(), 8, false); err != nil {
		t.Fatal(err)
	}

	other := testMeta()
	other.Seed = 4
	if _, err := Open(dir, other, 8, true); !errors.Is(err, ErrMismatch) {
		t.Fatalf("resume with different seed: %v", err)
	}
	other = testMeta()
	other.Rank = 5
	if _, err := Open(dir, other, 8, true); !errors.Is(err, ErrMismatch) {
		t.Fatalf("resume with different rank: %v", err)
	}
	if _, err := Open(dir, testMeta(), 9, true); !errors.Is(err, ErrMismatch) {
		t.Fatalf("resume with different block count: %v", err)
	}

	// Manifests written while Meta still had buffer_bytes (always 0: no
	// caller set it) carry the key; decoding ignores it and they resume.
	old := t.TempDir()
	body := `{"meta":{"input_kind":"dense","dims":[16,16,16],"partitions":[2,2,2],"rank":4,"schedule":"HO","replacement":"FOR","buffer_fraction":0.5,"buffer_bytes":0,"max_iters":20,"tol":0.01,"phase1_max_iters":0,"phase1_tol":0,"seed":3},"stage":"phase2","num_blocks":8}`
	env, err := json.Marshal(envelope{Version: Version, CRC32: crc32.ChecksumIEEE([]byte(body)), Body: []byte(body)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "manifest.json"), env, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Open(old, testMeta(), 8, true)
	if err != nil {
		t.Fatalf("resume of a manifest with buffer_bytes: %v", err)
	}
	defer rs.Close()
	if rs.Stage() != StagePhase2 {
		t.Fatalf("stage = %q", rs.Stage())
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"empty", func(d []byte) []byte { return nil }},
		{"bitflip", func(d []byte) []byte {
			// Flip a byte inside the body (past the envelope prefix).
			d[len(d)-10] ^= 0x40
			return d
		}},
		{"garbage", func(d []byte) []byte { return []byte("not json at all") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Open(dir, testMeta(), 8, false); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "manifest.json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, testMeta(), 8, true); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("resume over %s manifest: %v", tc.name, err)
			}
		})
	}
}

func TestBlockRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	rs, err := Open(dir, testMeta(), 8, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	factors := []*mat.Matrix{mat.Random(8, 4, rng), mat.Random(6, 4, rng), mat.Random(5, 4, rng)}
	if err := rs.SaveBlock(3, factors, 0.875); err != nil {
		t.Fatal(err)
	}
	if rs.Phase1Completed() != 1 {
		t.Fatalf("completed = %d", rs.Phase1Completed())
	}

	got, fit, ok, err := rs.LoadBlock(3)
	if err != nil || !ok {
		t.Fatalf("LoadBlock: ok=%v err=%v", ok, err)
	}
	if fit != 0.875 {
		t.Fatalf("fit = %v", fit)
	}
	for m := range factors {
		for i := range factors[m].Data {
			if got[m].Data[i] != factors[m].Data[i] {
				t.Fatalf("factor %d differs at %d", m, i)
			}
		}
	}

	// Absent block.
	if _, _, ok, err := rs.LoadBlock(5); ok || err != nil {
		t.Fatalf("absent block: ok=%v err=%v", ok, err)
	}

	// A record that no longer passes its CRC is treated as absent
	// (recompute), not fatal — found by this handle, and by a reopen.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-7] ^= 0x10
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := rs.LoadBlock(3); ok || err != nil {
		t.Fatalf("bit-flipped record: ok=%v err=%v", ok, err)
	}
	// Truncated, and zero-length too.
	for _, cut := range []int{len(data) - 7, 0} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := rs.LoadBlock(3); ok || err != nil {
			t.Fatalf("log cut to %d bytes: ok=%v err=%v", cut, ok, err)
		}
		rs2, err := Open(dir, testMeta(), 8, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := rs2.LoadBlock(3); ok || err != nil || rs2.Phase1Completed() != 0 {
			t.Fatalf("log cut to %d bytes, reopened: ok=%v err=%v completed=%d", cut, ok, err, rs2.Phase1Completed())
		}
		rs2.Close()
	}
}

func TestPhase2RoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	rs, err := Open(dir, testMeta(), 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok, err := rs.LoadPhase2(); st != nil || ok || err != nil {
		t.Fatalf("fresh LoadPhase2: %v %v %v", st, ok, err)
	}

	rng := rand.New(rand.NewSource(2))
	st := &Phase2State{
		NextStep: 5, Pos: 17, Updates: 40, VirtualIters: 3,
		FitTrace: []float64{0.1, 0.2, 0.3}, PrevFit: 0.3, WarmupLeft: 1,
		Buffer: BufferState{
			Resident: []buffer.SnapshotEntry{{ID: 2, Dirty: true}, {ID: 0}, {ID: 5, Dirty: true}},
			Cursor:   9,
			Stats:    buffer.Stats{Fetches: 11, Hits: 7, Evictions: 3, WriteBacks: 2},
		},
		StoreStats: blockstore.Stats{Reads: 13, Writes: 9, BytesRead: 4096, BytesWritten: 2048},
		A: [][]*mat.Matrix{
			{mat.Random(8, 4, rng), mat.Random(8, 4, rng)},
			{mat.Random(8, 4, rng), mat.Random(8, 4, rng)},
			{mat.Random(8, 4, rng), mat.Random(8, 4, rng)},
		},
	}
	if err := rs.SavePhase2(st); err != nil {
		t.Fatal(err)
	}
	got, ok, err := rs.LoadPhase2()
	if err != nil || !ok {
		t.Fatalf("LoadPhase2: ok=%v err=%v", ok, err)
	}
	if got.NextStep != st.NextStep || got.Pos != st.Pos || got.Updates != st.Updates ||
		got.VirtualIters != st.VirtualIters || got.PrevFit != st.PrevFit || got.WarmupLeft != st.WarmupLeft {
		t.Fatalf("scalar state differs: %+v", got)
	}
	if len(got.FitTrace) != 3 || got.FitTrace[2] != 0.3 {
		t.Fatalf("trace differs: %v", got.FitTrace)
	}
	if len(got.Buffer.Resident) != 3 || got.Buffer.Resident[0] != st.Buffer.Resident[0] ||
		got.Buffer.Cursor != 9 || got.Buffer.Stats != st.Buffer.Stats {
		t.Fatalf("buffer state differs: %+v", got.Buffer)
	}
	if got.StoreStats != st.StoreStats {
		t.Fatalf("store stats differ: %+v", got.StoreStats)
	}
	for m := range st.A {
		for p := range st.A[m] {
			for i := range st.A[m][p].Data {
				if got.A[m][p].Data[i] != st.A[m][p].Data[i] {
					t.Fatalf("A(%d)_(%d) differs at %d", m, p, i)
				}
			}
		}
	}

	// A second save goes to the other slot and is what loads.
	st.NextStep = 6
	if err := rs.SavePhase2(st); err != nil {
		t.Fatal(err)
	}
	got, _, err = rs.LoadPhase2()
	if err != nil || got.NextStep != 6 {
		t.Fatalf("second save: step=%d err=%v", got.NextStep, err)
	}

	// Damage to the newer slot is what a crash inside SavePhase2 leaves:
	// the checkpoint before it loads.
	newer := filepath.Join(dir, slotName(1))
	data, err := os.ReadFile(newer)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(newer, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err = rs.LoadPhase2()
	if err != nil || !ok || got.NextStep != 5 {
		t.Fatalf("torn newer slot: step=%+v ok=%v err=%v", got, ok, err)
	}

	// With no valid slot left, corruption of the one non-recomputable
	// checkpoint is an error.
	older := filepath.Join(dir, slotName(0))
	if data, err = os.ReadFile(older); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(older, data[:8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rs.LoadPhase2(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("both slots damaged: %v", err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rs, err := Open(dir, testMeta(), 8, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	st := &ResultState{
		Fit: 0.99, Phase1NS: 100, Phase2NS: 200, VirtualIters: 12, Converged: true,
		FitTrace: []float64{0.5, 0.9, 0.99}, Swaps: 42, SwapsPerIter: 3.5,
		BytesRead: 1 << 20, BytesWritten: 1 << 19,
		Factors: []*mat.Matrix{mat.Random(16, 4, rng), mat.Random(16, 4, rng), mat.Random(16, 4, rng)},
	}
	if err := rs.SaveResult(st); err != nil {
		t.Fatal(err)
	}
	if rs.Stage() != StageDone {
		t.Fatalf("stage after SaveResult = %q", rs.Stage())
	}

	rs2, err := Open(dir, testMeta(), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Stage() != StageDone {
		t.Fatalf("reopened stage = %q", rs2.Stage())
	}
	got, err := rs2.LoadResult()
	if err != nil {
		t.Fatal(err)
	}
	if got.Fit != st.Fit || got.VirtualIters != st.VirtualIters || !got.Converged ||
		got.Swaps != st.Swaps || len(got.FitTrace) != 3 || len(got.Factors) != 3 {
		t.Fatalf("result differs: %+v", got)
	}
	for m := range st.Factors {
		for i := range st.Factors[m].Data {
			if got.Factors[m].Data[i] != st.Factors[m].Data[i] {
				t.Fatalf("factor %d differs at %d", m, i)
			}
		}
	}
}

// TestFreshOpenRemovesStaleFiles guards against a fresh run loading
// checkpoint artifacts it did not write.
func TestFreshOpenRemovesStaleFiles(t *testing.T) {
	dir := t.TempDir()
	stale := []string{logName, slotName(0), slotName(1), "result.ckpt",
		"phase2.ckpt", "p1-block-0.ckpt"} // the last two are version 1's
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := Open(dir, testMeta(), 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := rs.LoadBlock(0); ok || err != nil {
		t.Fatalf("stale block visible: ok=%v err=%v", ok, err)
	}
	if _, ok, err := rs.LoadPhase2(); ok || err != nil {
		t.Fatalf("stale phase2 visible: ok=%v err=%v", ok, err)
	}
	for _, name := range stale {
		if _, err := os.Lstat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale %s survived a fresh Open (err=%v)", name, err)
		}
	}
}

// TestOpenSweepsOrphanedTempFiles: a SIGKILL can land between
// WriteFileAtomic's CreateTemp and rename; both fresh and resumed Opens
// must clear the orphans so they never accumulate across crashes.
func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, testMeta(), 8, false); err != nil {
		t.Fatal(err)
	}
	orphans := []string{"phase2-0.ckpt.tmp-123", "manifest.json.tmp-9", "result.ckpt.tmp-77"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("dead"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, testMeta(), 8, true); err != nil {
		t.Fatal(err)
	}
	for _, name := range orphans {
		if _, err := os.Lstat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphan %s survived resume Open (err=%v)", name, err)
		}
	}
}

// TestHasManifest pins the resume-or-create predicate.
func TestHasManifest(t *testing.T) {
	dir := t.TempDir()
	if HasManifest(dir) {
		t.Fatal("HasManifest true for empty dir")
	}
	if _, err := Open(dir, testMeta(), 8, false); err != nil {
		t.Fatal(err)
	}
	if !HasManifest(dir) {
		t.Fatal("HasManifest false after Open")
	}
}

// TestCheckpointDirNotWritable verifies the clear-error contract when the
// checkpoint location cannot be created: a path under a regular file fails
// on every platform and uid; a read-only directory additionally fails when
// the test is not running as root (root bypasses permission bits).
func TestCheckpointDirNotWritable(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "ckpt"), testMeta(), 8, false); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}

	if os.Geteuid() == 0 {
		t.Skip("running as root: permission bits are not enforced")
	}
	ro := filepath.Join(base, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(ro, "ckpt"), testMeta(), 8, false); err == nil {
		t.Fatal("Open under a read-only directory succeeded")
	}
	if _, err := Open(ro, testMeta(), 8, false); err == nil {
		t.Fatal("Open of a read-only directory succeeded")
	}
}

func TestRecordPhase0SurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{InputKind: "dense", Dims: []int{4, 4}, Partitions: []int{2, 2}, Rank: 2, Accelerator: "tucker"}
	rs, err := Open(dir, meta, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if acc, ns := rs.Phase0(); acc || ns != 0 {
		t.Fatalf("fresh run has Phase-0 outcome %v/%d", acc, ns)
	}
	if err := rs.RecordPhase0(true, 12345); err != nil {
		t.Fatal(err)
	}
	rs2, err := Open(dir, meta, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	acc, ns := rs2.Phase0()
	if !acc || ns != 12345 {
		t.Fatalf("reopened Phase-0 outcome = %v/%d, want true/12345", acc, ns)
	}
}
