package twopcp_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twopcp"
	"twopcp/internal/runstate"
)

func resumeOpts(dir string) twopcp.Options {
	return twopcp.Options{
		Rank:           3,
		Partitions:     []int{2, 2, 2},
		Schedule:       twopcp.HilbertOrder,
		Replacement:    twopcp.Forward,
		BufferFraction: 0.5,
		MaxIters:       8,
		Tol:            1e-6,
		Seed:           9,
		Checkpoint:     dir,
	}
}

func sameResult(t *testing.T, name string, got, want *twopcp.Result) {
	t.Helper()
	if got.Fit != want.Fit {
		t.Fatalf("%s: fit %v, want %v", name, got.Fit, want.Fit)
	}
	if got.RunStats.Swaps != want.RunStats.Swaps || got.VirtualIters != want.VirtualIters || got.Converged != want.Converged {
		t.Fatalf("%s: swaps/iters/converged = %d/%d/%v, want %d/%d/%v", name,
			got.RunStats.Swaps, got.VirtualIters, got.Converged, want.RunStats.Swaps, want.VirtualIters, want.Converged)
	}
	if len(got.FitTrace) != len(want.FitTrace) {
		t.Fatalf("%s: trace length %d, want %d", name, len(got.FitTrace), len(want.FitTrace))
	}
	for i := range want.FitTrace {
		if got.FitTrace[i] != want.FitTrace[i] {
			t.Fatalf("%s: trace[%d] = %v, want %v", name, i, got.FitTrace[i], want.FitTrace[i])
		}
	}
	for m := range want.Model.Factors {
		g, w := got.Model.Factors[m], want.Model.Factors[m]
		for i := range w.Data {
			if g.Data[i] != w.Data[i] {
				t.Fatalf("%s: factor %d differs at flat index %d", name, m, i)
			}
		}
	}
}

// TestDecomposeWithCheckpointMatchesPlain verifies the overhead-only
// contract: checkpointing changes no result field that the determinism
// contract covers, and resuming the completed run is a no-op that returns
// the recorded Result.
func TestDecomposeWithCheckpointMatchesPlain(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(4)), 16, 16, 16)

	plainOpts := resumeOpts("")
	plainOpts.Checkpoint = ""
	plain, err := twopcp.Decompose(x, plainOpts)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	ckpt, err := twopcp.Decompose(x, resumeOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "checkpointed", ckpt, plain)

	// Resume after completion: a no-op returning the final Result.
	reOpts := resumeOpts(dir)
	reOpts.Resume = true
	resumed, err := twopcp.Decompose(x, reOpts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "noop-resume", resumed, plain)
}

// copyV1Fixture copies one of internal/runstate's version-1 checkpoint
// directories (written by the last build of that layout) to a directory a
// run may open.
func copyV1Fixture(t *testing.T, name string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(filepath.Join("internal", "runstate", "testdata", name))); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestResumeVersion1Directory: the layout of a checkpoint directory changed
// (manifest version 2). A version-1 run that finished still returns its
// recorded result; one that did not is refused by name, not silently
// restarted over checkpoints this build does not read.
func TestResumeVersion1Directory(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(4)), 4, 4, 4)
	opts := twopcp.Options{ // the fixtures' fingerprint
		Rank: 2, Partitions: []int{2, 1, 1}, Schedule: twopcp.HilbertOrder, Replacement: twopcp.Forward,
		BufferFraction: 0.5, MaxIters: 5, Tol: 1e-2, Seed: 3, Resume: true,
	}

	opts.Checkpoint = copyV1Fixture(t, "v1-unfinished")
	if _, err := twopcp.Decompose(x, opts); !errors.Is(err, runstate.ErrVersion) {
		t.Fatalf("unfinished version-1 directory: got %v, want ErrVersion", err)
	}

	opts.Checkpoint = copyV1Fixture(t, "v1-done")
	res, err := twopcp.Decompose(x, opts)
	if err != nil {
		t.Fatalf("finished version-1 directory: %v", err)
	}
	if res.Fit != 0.875 || res.VirtualIters != 3 || res.RunStats.Swaps != 6 || len(res.Model.Factors) != 3 {
		t.Fatalf("finished version-1 directory returned %+v", res)
	}
}

// TestResumeEdgeCases covers the rejection paths: missing manifest,
// mismatched options/seed, re-running a fresh run over an existing
// manifest, and Resume without a Checkpoint directory.
func TestResumeEdgeCases(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(4)), 16, 16, 16)

	t.Run("resume-without-checkpoint-dir", func(t *testing.T) {
		opts := resumeOpts("")
		opts.Checkpoint = ""
		opts.Resume = true
		if _, err := twopcp.Decompose(x, opts); err == nil {
			t.Fatal("Resume without Checkpoint accepted")
		}
	})

	t.Run("resume-without-manifest", func(t *testing.T) {
		opts := resumeOpts(filepath.Join(t.TempDir(), "empty"))
		opts.Resume = true
		if _, err := twopcp.Decompose(x, opts); !errors.Is(err, runstate.ErrNoManifest) {
			t.Fatalf("got %v, want ErrNoManifest", err)
		}
	})

	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := twopcp.Decompose(x, resumeOpts(dir)); err != nil {
		t.Fatal(err)
	}

	t.Run("fresh-run-over-existing-manifest", func(t *testing.T) {
		if _, err := twopcp.Decompose(x, resumeOpts(dir)); !errors.Is(err, runstate.ErrExists) {
			t.Fatalf("got %v, want ErrExists", err)
		}
	})

	t.Run("mismatched-seed", func(t *testing.T) {
		opts := resumeOpts(dir)
		opts.Resume = true
		opts.Seed = 10
		if _, err := twopcp.Decompose(x, opts); !errors.Is(err, runstate.ErrMismatch) {
			t.Fatalf("got %v, want ErrMismatch", err)
		}
	})

	t.Run("mismatched-rank", func(t *testing.T) {
		opts := resumeOpts(dir)
		opts.Resume = true
		opts.Rank = 4
		if _, err := twopcp.Decompose(x, opts); !errors.Is(err, runstate.ErrMismatch) {
			t.Fatalf("got %v, want ErrMismatch", err)
		}
	})

	t.Run("mismatched-schedule", func(t *testing.T) {
		opts := resumeOpts(dir)
		opts.Resume = true
		opts.Schedule = twopcp.ZOrder
		if _, err := twopcp.Decompose(x, opts); !errors.Is(err, runstate.ErrMismatch) {
			t.Fatalf("got %v, want ErrMismatch", err)
		}
	})

	t.Run("infinite-tolerances-fingerprint", func(t *testing.T) {
		// ±Inf tolerances are legal (they disable convergence checks) and
		// must fold to finite fingerprint values instead of failing the
		// manifest's JSON encoding.
		dir := filepath.Join(t.TempDir(), "ckpt")
		opts := resumeOpts(dir)
		opts.Tol = math.Inf(-1)
		opts.Phase1Tol = math.Inf(-1)
		opts.MaxIters = 3
		if _, err := twopcp.Decompose(x, opts); err != nil {
			t.Fatalf("checkpointed run with -Inf tolerances: %v", err)
		}
		opts.Resume = true
		if _, err := twopcp.Decompose(x, opts); err != nil {
			t.Fatalf("resume with -Inf tolerances: %v", err)
		}
	})

	t.Run("read-only-checkpoint-dir", func(t *testing.T) {
		base := t.TempDir()
		file := filepath.Join(base, "occupied")
		if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		opts := resumeOpts(filepath.Join(file, "nested"))
		if _, err := twopcp.Decompose(x, opts); err == nil {
			t.Fatal("checkpoint dir under a regular file accepted")
		}
		if os.Geteuid() != 0 {
			ro := filepath.Join(base, "ro")
			if err := os.Mkdir(ro, 0o555); err != nil {
				t.Fatal(err)
			}
			opts.Checkpoint = filepath.Join(ro, "ckpt")
			if _, err := twopcp.Decompose(x, opts); err == nil {
				t.Fatal("checkpoint dir under a read-only directory accepted")
			}
		}
	})
}

// TestConstrainedCheckpointResume covers the solver identity in the
// durability layer: checkpointing a constrained run changes nothing
// (bit-for-bit vs plain), a completed constrained run no-op resumes, and a
// resume with a different constraint — or a different ridge weight — is
// rejected as a fingerprint mismatch.
func TestConstrainedCheckpointResume(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(4)), 16, 16, 16)
	modes := []struct {
		name       string
		constraint twopcp.Constraint
		lambda     float64
	}{
		{"nonneg", twopcp.ConstraintNonneg, 0},
		{"ridge", twopcp.ConstraintRidge, 0.02},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			withConstraint := func(dir string) twopcp.Options {
				opts := resumeOpts(dir)
				opts.Constraint = mode.constraint
				opts.Lambda = mode.lambda
				return opts
			}
			plainOpts := withConstraint("")
			plainOpts.Checkpoint = ""
			plain, err := twopcp.Decompose(x, plainOpts)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "ckpt")
			ckpt, err := twopcp.Decompose(x, withConstraint(dir))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "constrained-checkpointed", ckpt, plain)

			reOpts := withConstraint(dir)
			reOpts.Resume = true
			resumed, err := twopcp.Decompose(x, reOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "constrained-noop-resume", resumed, plain)

			// Mismatched solver identity is rejected.
			for _, bad := range []struct {
				constraint twopcp.Constraint
				lambda     float64
			}{
				{twopcp.ConstraintNone, 0},
				{twopcp.ConstraintRidge, 0.5},
				{twopcp.ConstraintNonneg, 0},
			} {
				if bad.constraint == mode.constraint && bad.lambda == mode.lambda {
					continue
				}
				badOpts := withConstraint(dir)
				badOpts.Resume = true
				badOpts.Constraint = bad.constraint
				badOpts.Lambda = bad.lambda
				if _, err := twopcp.Decompose(x, badOpts); !errors.Is(err, runstate.ErrMismatch) {
					t.Fatalf("resume with %v/%g over a %s checkpoint: got %v, want ErrMismatch",
						bad.constraint, bad.lambda, mode.name, err)
				}
			}
		})
	}
}

// TestTiledCheckpointResume exercises the checkpoint plumbing of the
// out-of-core front-end: DecomposeTiledFile with a checkpoint matches the
// plain run, and a completed tiled run no-op resumes.
func TestTiledCheckpointResume(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(4)), 16, 14, 12)
	path := filepath.Join(t.TempDir(), "x.tptl")
	if err := twopcp.SaveTiled(path, x, []int{3, 2, 2}); err != nil {
		t.Fatal(err)
	}

	plainOpts := resumeOpts("")
	plainOpts.Checkpoint = ""
	plain, err := twopcp.DecomposeTiledFile(path, plainOpts)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	ckpt, err := twopcp.DecomposeTiledFile(path, resumeOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "tiled-checkpointed", ckpt, plain)

	reOpts := resumeOpts(dir)
	reOpts.Resume = true
	resumed, err := twopcp.DecomposeTiledFile(path, reOpts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "tiled-noop-resume", resumed, plain)
}

// TestSparseCheckpointResume does the same for the sparse front-end.
func TestSparseCheckpointResume(t *testing.T) {
	x := twopcp.RandomCOO(rand.New(rand.NewSource(6)), 0.2, 14, 12, 10)

	plainOpts := resumeOpts("")
	plainOpts.Checkpoint = ""
	plain, err := twopcp.DecomposeSparse(x, plainOpts)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	ckpt, err := twopcp.DecomposeSparse(x, resumeOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "sparse-checkpointed", ckpt, plain)

	reOpts := resumeOpts(dir)
	reOpts.Resume = true
	resumed, err := twopcp.DecomposeSparse(x, reOpts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "sparse-noop-resume", resumed, plain)
}

// TestPowerLossResume copies a live checkpoint directory at a checkpoint
// in Phase 1 and at one in Phase 2, rewinds each copy to what a power loss
// at that instant leaves under group commit, and resumes it: factors,
// FitTrace and swaps must be bit-identical to an uninterrupted run.
//
// The rewind is the last-synced state. The run is far shorter than the
// one-second commit interval, so nothing is synced between Open and
// BeginPhase2 (the log is cut to nothing) or after the first Phase-2
// checkpoint, which is installed by rename (the newer slot is zeroed in
// place at its full size, as ext4 can leave a file whose size is durable
// and whose data is not).
func TestPowerLossResume(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(4)), 16, 16, 16)
	plainOpts := resumeOpts("")
	plainOpts.Checkpoint = ""
	plain, err := twopcp.Decompose(x, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []struct {
		name  string
		phase string // the manifest stage the copy must be taken in
		nth   int    // which checkpoint.write of that stage to copy at
	}{{"phase1", "phase1", 3}, {"phase2", "phase2", 4}} {
		t.Run(at.name, func(t *testing.T) {
			live := filepath.Join(t.TempDir(), "ckpt")
			snap := t.TempDir()
			seen, copied := 0, false
			opts := resumeOpts(live)
			opts.Workers, opts.CheckpointEverySteps = 1, 1
			opts.Observer = &twopcp.Observer{OnEvent: func(e twopcp.Event) {
				if copied || e.Name != "checkpoint.write" || !strings.Contains(readString(t, filepath.Join(live, "manifest.json")), `"stage":"`+at.phase+`"`) {
					return
				}
				if seen++; seen == at.nth {
					if err := os.CopyFS(snap, os.DirFS(live)); err != nil {
						t.Error(err)
					}
					copied = true
				}
			}}
			if _, err := twopcp.Decompose(x, opts); err != nil {
				t.Fatal(err)
			}
			if !copied {
				t.Fatalf("the run wrote %d checkpoints in %s, fewer than %d", seen, at.phase, at.nth)
			}
			rewindToSynced(t, snap, at.phase)

			reOpts := resumeOpts(snap)
			reOpts.Resume = true
			resumed, err := twopcp.Decompose(x, reOpts)
			if err != nil {
				t.Fatalf("resume after power loss: %v", err)
			}
			sameResult(t, "power-loss-"+at.name, resumed, plain)
		})
	}
}

// rewindToSynced is TestPowerLossResume's power loss: the block log keeps
// only what BeginPhase2 synced, and when both Phase-2 slots exist the one
// with the higher sequence number is zeroed in place.
func rewindToSynced(t *testing.T, dir, stage string) {
	t.Helper()
	if stage == "phase1" {
		if err := os.Truncate(filepath.Join(dir, "p1-blocks.log"), 0); err != nil {
			t.Fatal(err)
		}
		return
	}
	var slots [2][]byte
	for i := range slots {
		slots[i] = []byte(readString(t, filepath.Join(dir, fmt.Sprintf("phase2-%d.ckpt", i))))
	}
	// A slot record opens with a 16-byte header, then its sequence number.
	newest := 0
	if binary.LittleEndian.Uint64(slots[1][16:]) > binary.LittleEndian.Uint64(slots[0][16:]) {
		newest = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("phase2-%d.ckpt", newest))
	if err := os.WriteFile(path, make([]byte, len(slots[newest])), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readString(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// rewriteManifest replaces old with new in the body of dir's manifest and
// re-seals it, as a build that fingerprinted differently would have written
// it.
func rewriteManifest(t *testing.T, dir, old, new string) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Version int             `json:"version"`
		CRC32   uint32          `json:"crc32"`
		Body    json.RawMessage `json:"body"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	body := bytes.Replace(env.Body, []byte(old), []byte(new), 1)
	if bytes.Equal(body, env.Body) {
		t.Fatalf("manifest body holds no %s:\n%s", old, env.Body)
	}
	env.Body, env.CRC32 = body, crc32.ChecksumIEEE(body)
	if data, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesPreAlignmentCheckpoint: a checkpoint directory written
// before Phase 2 started from aligned Phase-1 blocks records no stitching
// version. An unfinished one holds Phase-2 state grown from the unaligned
// start, and this build would re-derive a different start from the block
// log, so its resume is refused with ErrMismatch instead of mixing the
// two. A finished one still returns the result it recorded.
func TestResumeRefusesPreAlignmentCheckpoint(t *testing.T) {
	x := twopcp.RandomDense(rand.New(rand.NewSource(4)), 16, 16, 16)
	dir := filepath.Join(t.TempDir(), "ckpt")
	stop := make(chan struct{})
	iters := 0
	opts := resumeOpts(dir)
	opts.CheckpointEverySteps = 1
	opts.Stop = stop
	opts.Observer = &twopcp.Observer{OnEvent: func(e twopcp.Event) {
		if e.Name == "phase2.iter" {
			if iters++; iters == 3 {
				close(stop)
			}
		}
	}}
	if _, err := twopcp.Decompose(x, opts); !errors.Is(err, twopcp.ErrInterrupted) {
		t.Fatalf("drained run: %v, want ErrInterrupted", err)
	}
	rewriteManifest(t, dir, `,"stitch":1`, ``)
	reOpts := resumeOpts(dir)
	reOpts.Resume = true
	if _, err := twopcp.Decompose(x, reOpts); !errors.Is(err, runstate.ErrMismatch) {
		t.Fatalf("resume of an unfinished run without a stitching version: got %v, want ErrMismatch", err)
	}

	done := filepath.Join(t.TempDir(), "done")
	want, err := twopcp.Decompose(x, resumeOpts(done))
	if err != nil {
		t.Fatal(err)
	}
	rewriteManifest(t, done, `,"stitch":1`, ``)
	reOpts.Checkpoint = done
	got, err := twopcp.Decompose(x, reOpts)
	if err != nil {
		t.Fatalf("resume of a finished run without a stitching version: %v", err)
	}
	sameResult(t, "finished", got, want)
}
