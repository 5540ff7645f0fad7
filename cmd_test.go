package twopcp_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"twopcp"
)

// CLI smoke tests: build each command once and drive the full
// generate → decompose → export workflow through real binaries.

func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIGenerateDecomposeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tensorgen := buildCmd(t, dir, "tensorgen")
	twopcpBin := buildCmd(t, dir, "twopcp")

	// Dense low-rank tensor → decompose → factors exported as CSV.
	tpath := filepath.Join(dir, "t.tpdn")
	out := runCmd(t, tensorgen, "-kind", "lowrank", "-dims", "16x16x16",
		"-rank", "2", "-noise", "0", "-seed", "3", "-out", tpath)
	if !strings.Contains(out, "dense [16 16 16]") {
		t.Fatalf("tensorgen output: %s", out)
	}
	prefix := filepath.Join(dir, "factors")
	out = runCmd(t, twopcpBin, "-in", tpath, "-rank", "2", "-parts", "2",
		"-schedule", "HO", "-replacement", "FOR", "-buffer", "0.5",
		"-out-prefix", prefix)
	if !strings.Contains(out, "fit") || !strings.Contains(out, "data swaps") {
		t.Fatalf("twopcp output: %s", out)
	}
	// An exactly low-rank tensor should report a high fit.
	var fit float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fit") {
			idx := strings.Index(line, ":")
			if _, err := fmt.Sscan(strings.TrimSpace(line[idx+1:]), &fit); err != nil {
				t.Fatalf("parse fit from %q: %v", line, err)
			}
		}
	}
	if fit < 0.9 {
		t.Fatalf("CLI fit = %g\n%s", fit, out)
	}
	for m := 0; m < 3; m++ {
		csv := prefix + "-mode" + string(rune('0'+m)) + ".csv"
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatalf("factor CSV missing: %v", err)
		}
		if lines := strings.Count(string(data), "\n"); lines != 16 {
			t.Fatalf("%s has %d rows, want 16", csv, lines)
		}
	}
}

func TestCLITiledOutOfCore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tensorgen := buildCmd(t, dir, "tensorgen")
	twopcpBin := buildCmd(t, dir, "twopcp")

	// Stream-generate a tiled low-rank tensor, then decompose it fully
	// out-of-core (tiled input + file-backed Phase-2 store).
	tpath := filepath.Join(dir, "big.tptl")
	out := runCmd(t, tensorgen, "-kind", "lowrank", "-dims", "18x16x14",
		"-rank", "2", "-noise", "0", "-tiles", "3x2x2", "-seed", "3", "-out", tpath)
	if !strings.Contains(out, "tiled dense [18 16 14]") {
		t.Fatalf("tensorgen output: %s", out)
	}
	out = runCmd(t, twopcpBin, "-in", tpath, "-rank", "2", "-parts", "2",
		"-buffer", "0.5", "-store", filepath.Join(dir, "units"))
	if !strings.Contains(out, "tensor     : [18 16 14]") {
		t.Fatalf("twopcp output: %s", out)
	}
	var fit float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fit") {
			idx := strings.Index(line, ":")
			if _, err := fmt.Sscan(strings.TrimSpace(line[idx+1:]), &fit); err != nil {
				t.Fatalf("parse fit from %q: %v", line, err)
			}
		}
	}
	if fit < 0.9 {
		t.Fatalf("tiled CLI fit = %g\n%s", fit, out)
	}

	// Gzip-compressed tiles decompose identically.
	zpath := filepath.Join(dir, "big-gz.tptl")
	runCmd(t, tensorgen, "-kind", "lowrank", "-dims", "18x16x14",
		"-rank", "2", "-noise", "0", "-tiles", "3x2x2", "-seed", "3", "-gzip", "-out", zpath)
	outGz := runCmd(t, twopcpBin, "-in", zpath, "-rank", "2", "-parts", "2",
		"-buffer", "0.5", "-store", filepath.Join(dir, "units-gz"))
	if !strings.Contains(outGz, "tensor     : [18 16 14]") {
		t.Fatalf("gzip twopcp output: %s", outGz)
	}
	// The dense kind streams too.
	dpath := filepath.Join(dir, "dense.tptl")
	runCmd(t, tensorgen, "-kind", "dense", "-dims", "12x12x12", "-density", "0.5",
		"-tiles", "2", "-seed", "5", "-out", dpath)
	runCmd(t, twopcpBin, "-in", dpath, "-rank", "2", "-parts", "2")
	// Sparse kinds cannot be tiled.
	cmd := exec.Command(tensorgen, "-kind", "epinions", "-out", filepath.Join(dir, "bad.tptl"))
	if err := cmd.Run(); err == nil {
		t.Fatal("sparse kind accepted for .tptl output")
	}
}

// TestCLIExportSnapshot drives run → export-snapshot → open: the exported
// snapshot must serve the run's own factors (its CSV export) cell for cell,
// and a checkpoint that never finished must not export at all.
func TestCLIExportSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tensorgen := buildCmd(t, dir, "tensorgen")
	twopcpBin := buildCmd(t, dir, "twopcp")

	tpath := filepath.Join(dir, "x.tptl")
	runCmd(t, tensorgen, "-kind", "lowrank", "-dims", "32x30x28", "-rank", "3",
		"-noise", "0", "-tiles", "3x2x2", "-seed", "3", "-out", tpath)
	ckpt := filepath.Join(dir, "ckpt")
	prefix := filepath.Join(dir, "run")
	runCmd(t, twopcpBin, "-in", tpath, "-rank", "3", "-parts", "2", "-buffer", "0.5",
		"-checkpoint", ckpt, "-out-prefix", prefix)
	snap := filepath.Join(dir, "factors.snap")
	runCmd(t, twopcpBin, "export-snapshot", "-checkpoint", ckpt, "-out", snap)

	mdl, err := twopcp.OpenFactorModel(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer mdl.Close()
	if got := mdl.Dims(); !reflect.DeepEqual(got, []int{32, 30, 28}) || mdl.Rank() != 3 {
		t.Fatalf("snapshot dims %v rank %d, want [32 30 28] rank 3", got, mdl.Rank())
	}
	factors := make([][][]float64, 3) // [mode][row][column], from the CSVs
	for m := range factors {
		data, err := os.ReadFile(fmt.Sprintf("%s-mode%d.csv", prefix, m))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var row []float64
			for _, field := range strings.Split(line, ",") {
				v, err := strconv.ParseFloat(field, 64)
				if err != nil {
					t.Fatal(err)
				}
				row = append(row, v)
			}
			factors[m] = append(factors[m], row)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 16; trial++ {
		at := []int{rng.Intn(32), rng.Intn(30), rng.Intn(28)}
		got, err := mdl.Reconstruct(at)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for f := 0; f < 3; f++ {
			want += factors[0][at[0]][f] * factors[1][at[1]][f] * factors[2][at[2]][f]
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("Reconstruct(%v) = %v, CSV factors give %v", at, got, want)
		}
	}

	// A run drained before it finished leaves a checkpoint with no result.
	stop := make(chan struct{})
	close(stop)
	unfinished := filepath.Join(dir, "unfinished")
	_, _, err = twopcp.DecomposeFile(tpath, twopcp.Options{
		Rank: 3, Partitions: []int{2}, BufferFraction: 0.5, Seed: 1,
		Checkpoint: unfinished, Stop: stop,
	})
	if !errors.Is(err, twopcp.ErrInterrupted) {
		t.Fatalf("drained run: %v, want ErrInterrupted", err)
	}
	bad := filepath.Join(dir, "unfinished.snap")
	if out, err := exec.Command(twopcpBin, "export-snapshot", "-checkpoint", unfinished, "-out", bad).CombinedOutput(); err == nil {
		t.Fatalf("export-snapshot of an unfinished checkpoint exited 0:\n%s", out)
	}
	if _, err := os.Stat(bad); err == nil {
		t.Fatal("export-snapshot of an unfinished checkpoint wrote a snapshot")
	}
}

func TestCLISparseAndErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tensorgen := buildCmd(t, dir, "tensorgen")
	twopcpBin := buildCmd(t, dir, "twopcp")

	spath := filepath.Join(dir, "s.tpsp")
	runCmd(t, tensorgen, "-kind", "epinions", "-seed", "4", "-out", spath)
	out := runCmd(t, twopcpBin, "-in", spath, "-rank", "3", "-parts", "2")
	if !strings.Contains(out, "tensor     : [170 1000 18]") {
		t.Fatalf("sparse decompose output: %s", out)
	}

	// Unknown schedule must fail loudly.
	cmd := exec.Command(twopcpBin, "-in", spath, "-schedule", "XX")
	if err := cmd.Run(); err == nil {
		t.Fatal("bad schedule accepted")
	}
	// Garbage input file must fail loudly.
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("GARBAGE"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(twopcpBin, "-in", bad)
	if err := cmd.Run(); err == nil {
		t.Fatal("garbage input accepted")
	}
	// The removed accelerator is an error, not a silent "none".
	out2, err := exec.Command(twopcpBin, "-in", spath, "-accelerator", "sketched").CombinedOutput()
	if want := `unknown accelerator "sketched" (want none or tucker)`; err == nil || !strings.Contains(string(out2), want) {
		t.Fatalf("-accelerator sketched: err %v, output does not say %q:\n%s", err, want, out2)
	}
	// A NaN cell fails the run and names the block that holds it.
	x := twopcp.RandomDense(rand.New(rand.NewSource(1)), 12, 12, 12)
	x.Set(math.NaN(), 7, 1, 1)
	npath := filepath.Join(dir, "nan.tpdn")
	if err := twopcp.SaveDense(npath, x); err != nil {
		t.Fatal(err)
	}
	out2, err = exec.Command(twopcpBin, "-in", npath, "-rank", "2", "-parts", "2").CombinedOutput()
	if err == nil || !strings.Contains(string(out2), "block [1 0 0]") || !strings.Contains(string(out2), "non-finite") {
		t.Fatalf("NaN input: err %v, output does not name block [1 0 0] as non-finite:\n%s", err, out2)
	}
}

// TestCLIRefusesUnfinishedVersion1Checkpoint: -resume over a directory in
// the version-1 checkpoint layout must fail with runstate's own message,
// which names both versions and what to do, and must leave the directory
// alone.
func TestCLIRefusesUnfinishedVersion1Checkpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tensorgen := buildCmd(t, dir, "tensorgen")
	twopcpBin := buildCmd(t, dir, "twopcp")
	tpath := filepath.Join(dir, "t.tpdn")
	runCmd(t, tensorgen, "-kind", "lowrank", "-dims", "4x4x4", "-rank", "2", "-seed", "3", "-out", tpath)

	ckpt := copyV1Fixture(t, "v1-unfinished")
	out, err := exec.Command(twopcpBin, "-in", tpath, "-rank", "2", "-resume", ckpt).CombinedOutput()
	if err == nil {
		t.Fatalf("resume over a version-1 directory succeeded:\n%s", out)
	}
	for _, want := range []string{"written by an older version", "manifest version 1", "resumes version 2"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stderr does not say %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(filepath.Join(ckpt, "phase2.ckpt")); err != nil {
		t.Errorf("the refused resume disturbed the directory: %v", err)
	}
}

// TestCLICrashRecovery SIGKILLs a checkpointed decomposition mid-Phase-2
// through the real binary and verifies the resumed run's factors and
// result JSON are bit-for-bit identical to an uninterrupted run (the CI
// crash-recovery job runs the same scenario via scripts/crash_recovery.sh).
func TestCLICrashRecovery(t *testing.T) {
	crashRecoveryScenario(t,
		[]string{"-kind", "lowrank", "-dims", "30x30x30", "-rank", "3",
			"-noise", "0.3", "-tiles", "3x3x3", "-seed", "11"},
		[]string{"-rank", "3", "-parts", "3", "-buffer", "0.5",
			"-iters", "500", "-tol=-1", "-seed", "11"})
}

// TestCLICrashRecoveryAccelerated runs the same kill-and-resume scenario
// with the Tucker accelerator on a low-multilinear-rank input: Phase 0 is
// recomputed deterministically on a Phase-1 resume and skipped on a
// Phase-2 resume, so the resumed run must still match bit for bit.
func TestCLICrashRecoveryAccelerated(t *testing.T) {
	crashRecoveryScenario(t,
		[]string{"-kind", "lowmlrank", "-dims", "30x30x30", "-mlrank", "4", "-diag",
			"-noise", "1e-5", "-tiles", "3x3x3", "-seed", "11"},
		[]string{"-rank", "6", "-parts", "3", "-buffer", "0.5", "-accelerator", "tucker",
			"-iters", "500", "-tol=-1", "-seed", "11"})
}

func crashRecoveryScenario(t *testing.T, genArgs, decompArgs []string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tensorgen := buildCmd(t, dir, "tensorgen")
	twopcpBin := buildCmd(t, dir, "twopcp")

	tpath := filepath.Join(dir, "x.tptl")
	runCmd(t, tensorgen, append(genArgs, "-out", tpath)...)

	args := append([]string{"-in", tpath}, decompArgs...)

	refJSON := filepath.Join(dir, "ref.json")
	runCmd(t, twopcpBin, append(args, "-out-prefix", filepath.Join(dir, "ref"), "-json", refJSON)...)

	// Start the checkpointed run and kill it hard once Phase 2 has
	// checkpointed at least once.
	ckpt := filepath.Join(dir, "ckpt")
	cmd := exec.Command(twopcpBin, append(args, "-checkpoint", ckpt, "-checkpoint-steps", "1")...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	phase2 := filepath.Join(ckpt, "phase2-0.ckpt")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(phase2); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no Phase-2 checkpoint appeared within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let it advance past the first checkpoint
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v (run may have finished too early — enlarge the workload)", err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("killed run exited cleanly; the kill landed after completion")
	}

	// Resume and compare everything deterministic against the reference.
	resJSON := filepath.Join(dir, "res.json")
	out := runCmd(t, twopcpBin, append(args, "-resume", ckpt, "-out-prefix", filepath.Join(dir, "res"), "-json", resJSON)...)
	if !strings.Contains(out, "fit") {
		t.Fatalf("resume output: %s", out)
	}
	for m := 0; m < 3; m++ {
		ref, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ref-mode%d.csv", m)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("res-mode%d.csv", m)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, res) {
			t.Fatalf("mode-%d factors differ between reference and resumed run", m)
		}
	}
	var ref, res map[string]any
	refData, err := os.ReadFile(refJSON)
	if err != nil {
		t.Fatal(err)
	}
	resData, err := os.ReadFile(resJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(refData, &ref); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resData, &res); err != nil {
		t.Fatal(err)
	}
	// Wall clock legitimately differs between the runs, and a resumed run
	// reports fewer Phase-1 sweeps (checkpoint-restored blocks recompute
	// nothing). Everything else in run_stats — swaps, hit rate, store
	// traffic — must match bit for bit.
	for _, m := range []map[string]any{ref, res} {
		rs, ok := m["run_stats"].(map[string]any)
		if !ok {
			t.Fatalf("result JSON has no run_stats object: %v", m)
		}
		for _, k := range []string{"phase0_ns", "phase1_ns", "phase2_ns", "phase1_sweeps", "retries"} {
			delete(rs, k)
		}
	}
	if !reflect.DeepEqual(ref, res) {
		t.Fatalf("result JSON differs:\nreference: %v\nresumed:   %v", ref, res)
	}
}

// TestCLIGracefulDrain sends a real SIGTERM to a checkpointed run and
// verifies the drain contract: the process writes its checkpoint, exits
// with the distinct "drained" code 3, and a -resume run finishes
// bit-identical to an uninterrupted one.
func TestCLIGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tensorgen := buildCmd(t, dir, "tensorgen")
	twopcpBin := buildCmd(t, dir, "twopcp")

	tpath := filepath.Join(dir, "x.tptl")
	runCmd(t, tensorgen, "-kind", "lowrank", "-dims", "30x30x30", "-rank", "3",
		"-noise", "0.3", "-tiles", "3x3x3", "-seed", "11", "-out", tpath)
	args := []string{"-in", tpath, "-rank", "3", "-parts", "3", "-buffer", "0.5",
		"-iters", "500", "-tol=-1", "-seed", "11"}

	refJSON := filepath.Join(dir, "ref.json")
	runCmd(t, twopcpBin, append(args, "-out-prefix", filepath.Join(dir, "ref"), "-json", refJSON)...)

	// Start the checkpointed run and SIGTERM it once Phase 2 is underway.
	ckpt := filepath.Join(dir, "ckpt")
	cmd := exec.Command(twopcpBin, append(args, "-checkpoint", ckpt, "-checkpoint-steps", "1")...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	phase2 := filepath.Join(ckpt, "phase2-0.ckpt")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(phase2); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no Phase-2 checkpoint appeared within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v (run may have finished too early — enlarge the workload)", err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("drained run: err = %v, want exit code 3\nstderr: %s", err, stderr.String())
	}
	if code := ee.ExitCode(); code != 3 {
		t.Fatalf("drained run exit code = %d, want 3\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("no drain notice on stderr:\n%s", stderr.String())
	}
	if _, err := os.Stat(phase2); err != nil {
		t.Fatalf("checkpoint missing after drain: %v", err)
	}

	// Resume must be bit-exact against the uninterrupted reference.
	resJSON := filepath.Join(dir, "res.json")
	runCmd(t, twopcpBin, append(args, "-resume", ckpt,
		"-out-prefix", filepath.Join(dir, "res"), "-json", resJSON)...)
	for m := 0; m < 3; m++ {
		ref, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ref-mode%d.csv", m)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("res-mode%d.csv", m)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, res) {
			t.Fatalf("mode-%d factors differ between reference and drained+resumed run", m)
		}
	}
	var ref, res map[string]any
	refData, err := os.ReadFile(refJSON)
	if err != nil {
		t.Fatal(err)
	}
	resData, err := os.ReadFile(resJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(refData, &ref); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resData, &res); err != nil {
		t.Fatal(err)
	}
	for _, m := range []map[string]any{ref, res} {
		rs, ok := m["run_stats"].(map[string]any)
		if !ok {
			t.Fatalf("result JSON has no run_stats object: %v", m)
		}
		for _, k := range []string{"phase0_ns", "phase1_ns", "phase2_ns", "phase1_sweeps", "retries"} {
			delete(rs, k)
		}
	}
	if !reflect.DeepEqual(ref, res) {
		t.Fatalf("result JSON differs:\nreference: %v\nresumed:   %v", ref, res)
	}
}

// TestCLIStdoutContract pins the CLI's stream discipline: stdout is
// reserved for machine-parseable output. Without -json the binary writes
// NOTHING to stdout (the human summary goes to stderr); with -json stdout
// is exactly one JSON object. The telemetry flags must not leak onto
// stdout either, and the trace they produce must pass tracecheck.
func TestCLIStdoutContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tensorgen := buildCmd(t, dir, "tensorgen")
	twopcpBin := buildCmd(t, dir, "twopcp")
	tracecheck := buildCmd(t, dir, "tracecheck")

	tpath := filepath.Join(dir, "x.tptl")
	runCmd(t, tensorgen, "-kind", "lowrank", "-dims", "16x14x12", "-rank", "2",
		"-noise", "0", "-tiles", "2", "-seed", "7", "-out", tpath)

	tracePath := filepath.Join(dir, "run.jsonl")
	metricsPath := filepath.Join(dir, "metrics.json")
	run := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		var outBuf, errBuf bytes.Buffer
		cmd := exec.Command(twopcpBin, append([]string{"-in", tpath, "-rank", "2",
			"-parts", "2", "-buffer", "0.5", "-seed", "7",
			"-trace", tracePath, "-metrics", metricsPath,
			"-progress", "1ms"}, extra...)...)
		cmd.Stdout = &outBuf
		cmd.Stderr = &errBuf
		if err := cmd.Run(); err != nil {
			t.Fatalf("twopcp %v: %v\n%s", extra, err, errBuf.String())
		}
		return outBuf.String(), errBuf.String()
	}

	stdout, stderr := run()
	if stdout != "" {
		t.Errorf("stdout not empty without -json:\n%q", stdout)
	}
	if !strings.Contains(stderr, "fit") || !strings.Contains(stderr, "data swaps") {
		t.Errorf("human summary missing from stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, "progress") {
		t.Errorf("-progress 1ms produced no progress lines on stderr:\n%s", stderr)
	}

	jsonPath := filepath.Join(dir, "out.json")
	stdout, _ = run("-json", jsonPath)
	if stdout != "" {
		t.Errorf("stdout not empty with -json FILE:\n%q", stdout)
	}
	var parsed struct {
		Fit      float64        `json:"fit"`
		RunStats map[string]any `json:"run_stats"`
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("-json output is not a JSON object: %v\n%s", err, data)
	}
	if parsed.Fit < 0.9 || parsed.RunStats == nil {
		t.Errorf("-json output incomplete: fit=%v run_stats=%v", parsed.Fit, parsed.RunStats)
	}
	if _, ok := parsed.RunStats["swaps"]; !ok {
		t.Errorf("run_stats has no swaps field: %v", parsed.RunStats)
	}

	// The -json FILE value "-" streams the object to stdout — then stdout
	// must be exactly that object and nothing else.
	stdout, _ = run("-json", "-")
	var onStdout map[string]any
	if err := json.Unmarshal([]byte(stdout), &onStdout); err != nil {
		t.Errorf("-json - stdout is not exactly one JSON object: %v\n%q", err, stdout)
	}

	// The trace (appended across all three runs) validates cleanly, and
	// the metrics snapshot parses.
	var tcOut, tcErr bytes.Buffer
	tc := exec.Command(tracecheck, tracePath)
	tc.Stdout = &tcOut
	tc.Stderr = &tcErr
	if err := tc.Run(); err != nil {
		t.Fatalf("tracecheck: %v\n%s", err, tcErr.String())
	}
	if !strings.Contains(tcErr.String(), "events OK") {
		t.Errorf("tracecheck census missing:\n%s", tcErr.String())
	}
	var snap map[string]any
	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mdata, &snap); err != nil {
		t.Fatalf("metrics snapshot is not JSON: %v", err)
	}
	for _, k := range []string{"counters", "gauges", "histograms"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("metrics snapshot missing %q section", k)
		}
	}
}

func TestCLIExperimentsTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	experiments := buildCmd(t, dir, "experiments")
	out := runCmd(t, experiments, "table3")
	for _, want := range []string{"Table III", "8×8×8", "FOR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table3 output missing %q:\n%s", want, out)
		}
	}
}
