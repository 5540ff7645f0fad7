package jobs

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"twopcp"
	"twopcp/internal/cli"
	"twopcp/internal/runstate"
)

// writeFactorForTest renders a factor with the shared CSV writer so test
// comparisons use the exact bytes the service exports.
func writeFactorForTest(path string, m *twopcp.Matrix) error {
	return cli.WriteFactorCSV(path, m)
}

// writeTensor writes a small low-rank tiled tensor for job tests.
func writeTensor(t *testing.T, path string, seed int64, dims ...int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	factors := make([]*twopcp.Matrix, len(dims))
	for k, d := range dims {
		m := &twopcp.Matrix{Rows: d, Cols: 2, Data: make([]float64, d*2)}
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		factors[k] = m
	}
	if err := twopcp.SaveTiled(path, twopcp.NewKTensor(factors).Full(), []int{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
}

// newTestManager opens a store+manager pair rooted in the test tempdir.
func newTestManager(t *testing.T, root string, workers int) (*Store, *Manager) {
	t.Helper()
	store, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(store, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return store, m
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, m *Manager, id string, want ...State) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		job, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range want {
			if job.State == s {
				return job
			}
		}
		if job.State.Terminal() {
			t.Fatalf("job %s reached %q (error %q), want one of %v", id, job.State, job.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want one of %v", id, job.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestStoreRoundtrip(t *testing.T) {
	root := filepath.Join(t.TempDir(), "data")
	store, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(100, 0).UTC()
	j1, err := store.Create(Spec{Input: "/tmp/x.tptl", Rank: 3}, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != "j000001" || j1.State != StateQueued {
		t.Fatalf("first job = %q state %q", j1.ID, j1.State)
	}
	j2, err := store.Create(Spec{Rank: 2}, strings.NewReader("TPTLtensorbytes"), now)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Spec.Input != store.InputPath(j2.ID) {
		t.Fatalf("upload input = %q, want %q", j2.Spec.Input, store.InputPath(j2.ID))
	}
	data, err := os.ReadFile(store.InputPath(j2.ID))
	if err != nil || string(data) != "TPTLtensorbytes" {
		t.Fatalf("uploaded bytes = %q, %v", data, err)
	}

	j1.State = StateDone
	j1.Result = &Summary{Fit: 0.5, FitTrace: []float64{0.1, 0.5}}
	if err := store.Put(j1); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Result == nil || got.Result.Fit != 0.5 {
		t.Fatalf("roundtripped job = %+v", got)
	}

	// Reopening continues ID allocation past persisted jobs.
	store2, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	j3, err := store2.Create(Spec{Input: "/tmp/x.tptl", Rank: 1}, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != "j000003" {
		t.Fatalf("post-reopen ID = %q, want j000003", j3.ID)
	}
	all, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].ID != "j000001" || all[2].ID != "j000003" {
		t.Fatalf("Load = %d jobs (%v...)", len(all), all[0].ID)
	}
}

// TestManagerSkipsCorruptRecord: a truncated job.json beside a good one
// must not keep the manager from starting. The good job is served, the
// damaged file stays where it was, and its ID is not handed out again.
func TestManagerSkipsCorruptRecord(t *testing.T) {
	root := filepath.Join(t.TempDir(), "data")
	store, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	var jobs [2]*Job
	for i := range jobs {
		if jobs[i], err = store.Create(Spec{Input: "/tmp/x.tptl", Rank: 2}, nil, time.Unix(100, 0).UTC()); err != nil {
			t.Fatal(err)
		}
		jobs[i].State = StateDone
		if err := store.Put(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	bad := filepath.Join(store.Dir(jobs[1].ID), recordName)
	data, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	store, m := newTestManager(t, root, 1)
	defer m.Drain()
	if got := m.List(); len(got) != 1 || got[0].ID != jobs[0].ID || got[0].State != StateDone {
		t.Fatalf("manager lists %d jobs, want only the good %s", len(got), jobs[0].ID)
	}
	if kept, err := os.ReadFile(bad); err != nil || len(kept) != len(data)/2 {
		t.Fatalf("damaged record not left in place: %d bytes, %v", len(kept), err)
	}
	next, err := store.Create(Spec{Input: "/tmp/x.tptl", Rank: 2}, nil, time.Unix(100, 0).UTC())
	if err != nil || next.ID != "j000003" {
		t.Fatalf("next ID %q (%v), want j000003", next.ID, err)
	}
}

func TestManagerRunsJobToDone(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 1, 12, 12, 12)
	_, m := newTestManager(t, filepath.Join(dir, "data"), 2)
	defer m.Drain()

	job, err := m.Submit(Spec{Input: tensor, Rank: 2, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, job.ID, StateDone)
	if done.Result == nil || done.Result.Fit < 0.9 {
		t.Fatalf("result = %+v", done.Result)
	}
	if done.Modes != 3 || len(done.Dims) != 3 {
		t.Fatalf("dims = %v modes = %d", done.Dims, done.Modes)
	}
	// The daemon's factors must be byte-identical to a local run with the
	// same configuration — the service adds no numerics of its own. Build
	// the local options through the same normalized spec the job ran.
	spec := done.Spec
	opts, err := spec.Options("", "", false)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := twopcp.DecomposeFile(tensor, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit != done.Result.Fit {
		t.Fatalf("service fit %v != local fit %v", done.Result.Fit, res.Fit)
	}
	for mode := 0; mode < 3; mode++ {
		got, err := os.ReadFile(m.Store().FactorPath(job.ID, mode))
		if err != nil {
			t.Fatal(err)
		}
		want := factorCSV(t, res.Model.Factors[mode])
		if !bytes.Equal(got, want) {
			t.Fatalf("mode-%d factors differ between service job and local run", mode)
		}
	}
}

// factorCSV renders a factor with the shared CSV writer for comparison.
func factorCSV(t *testing.T, m *twopcp.Matrix) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.csv")
	if err := writeFactorForTest(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestManagerValidatesSubmissions(t *testing.T) {
	dir := t.TempDir()
	_, m := newTestManager(t, filepath.Join(dir, "data"), 1)
	defer m.Drain()

	if _, err := m.Submit(Spec{Rank: 2}, nil); err == nil {
		t.Fatal("missing input accepted")
	}
	if _, err := m.Submit(Spec{Input: filepath.Join(dir, "nope"), Rank: 2}, nil); err == nil {
		t.Fatal("unreadable input accepted")
	}
	if _, err := m.Submit(Spec{Input: dir, Rank: 0}, nil); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := m.Submit(Spec{Input: dir, Rank: 2, Schedule: "XX"}, nil); err == nil {
		t.Fatal("bad schedule accepted")
	}
}

// longSpec is a workload big enough to cancel or drain mid-run, with
// per-step checkpoints so interruption points are plentiful.
func longSpec(tensor string) Spec {
	return Spec{Input: tensor, Rank: 3, Parts: 3, BufferFraction: 0.5,
		MaxIters: 500, Tol: -1, Seed: 11, CheckpointEverySteps: 1}
}

// waitCheckpoint polls until the job has a durable run checkpoint.
func waitCheckpoint(t *testing.T, store *Store, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !store.HasCheckpoint(id) {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint for %s within 60s", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestManagerCancelResume(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 11, 30, 30, 30)

	// Uninterrupted reference through a separate manager/store.
	refStore, refM := newTestManager(t, filepath.Join(dir, "ref"), 1)
	refJob, err := refM.Submit(longSpec(tensor), nil)
	if err != nil {
		t.Fatal(err)
	}
	refDone := waitState(t, refM, refJob.ID, StateDone)
	refM.Drain()

	store, m := newTestManager(t, filepath.Join(dir, "data"), 1)
	defer m.Drain()
	job, err := m.Submit(longSpec(tensor), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, StateRunning)
	waitCheckpoint(t, store, job.ID)
	if err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	canceled := waitState(t, m, job.ID, StateCanceled)
	if canceled.Error == "" {
		t.Fatal("canceled job has no error note")
	}
	if !store.HasCheckpoint(job.ID) {
		t.Fatal("canceled job lost its checkpoint")
	}
	// Cancel of a terminal job must be rejected.
	if err := m.Cancel(job.ID); err == nil {
		t.Fatal("second cancel accepted")
	}

	if _, err := m.Resume(job.ID); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, job.ID, StateDone)

	// The canceled-and-resumed job must match the uninterrupted reference
	// bit for bit: same fit, same trace, same factor bytes.
	if done.Result.Fit != refDone.Result.Fit {
		t.Fatalf("resumed fit %v != reference fit %v", done.Result.Fit, refDone.Result.Fit)
	}
	if len(done.Result.FitTrace) != len(refDone.Result.FitTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(done.Result.FitTrace), len(refDone.Result.FitTrace))
	}
	for i := range done.Result.FitTrace {
		if done.Result.FitTrace[i] != refDone.Result.FitTrace[i] {
			t.Fatalf("fit trace diverges at %d", i)
		}
	}
	for mode := 0; mode < 3; mode++ {
		a, err := os.ReadFile(store.FactorPath(job.ID, mode))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(refStore.FactorPath(refJob.ID, mode))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("mode-%d factors differ between resumed and reference job", mode)
		}
	}
}

func TestManagerDrainAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 11, 30, 30, 30)

	refStore, refM := newTestManager(t, filepath.Join(dir, "ref"), 1)
	refJob, err := refM.Submit(longSpec(tensor), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, refM, refJob.ID, StateDone)
	refM.Drain()

	root := filepath.Join(dir, "data")
	store, m := newTestManager(t, root, 1)
	job, err := m.Submit(longSpec(tensor), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, StateRunning)
	waitCheckpoint(t, store, job.ID)
	m.Drain()

	interrupted, err := m.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if interrupted.State != StateInterrupted {
		t.Fatalf("post-drain state = %q, want interrupted", interrupted.State)
	}
	if _, err := m.Submit(longSpec(tensor), nil); err != ErrDraining {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}

	// "Restart the daemon": a fresh manager over the same store requeues
	// and resumes the interrupted job automatically.
	store2, m2 := newTestManager(t, root, 1)
	defer m2.Drain()
	done := waitState(t, m2, job.ID, StateDone)

	for mode := 0; mode < 3; mode++ {
		a, err := os.ReadFile(store2.FactorPath(job.ID, mode))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(refStore.FactorPath(refJob.ID, mode))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("mode-%d factors differ between drained+restarted and reference job", mode)
		}
	}
	if done.Result.Fit != refDoneFit(t, refM, refJob.ID) {
		t.Fatal("fit differs between drained+restarted and reference job")
	}
}

// TestRestartOverVersion1CheckpointFailsTheJob: a daemon upgraded across the
// checkpoint-layout change finds an interrupted job whose directory it
// cannot resume. The job must fail with runstate's message on its record,
// not restart from nothing over checkpoints the user believes durable.
func TestRestartOverVersion1CheckpointFailsTheJob(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 11, 30, 30, 30)

	root := filepath.Join(dir, "data")
	store, m := newTestManager(t, root, 1)
	job, err := m.Submit(longSpec(tensor), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, StateRunning)
	waitCheckpoint(t, store, job.ID)
	m.Drain()

	// Swap the interrupted job's checkpoint directory for one written by
	// the last build of the version-1 layout.
	ckpt := store.CheckpointDir(job.ID)
	if err := os.RemoveAll(ckpt); err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join("..", "runstate", "testdata", "v1-unfinished")
	if err := os.CopyFS(ckpt, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}

	_, m2 := newTestManager(t, root, 1)
	defer m2.Drain()
	failed := waitState(t, m2, job.ID, StateFailed)
	if !strings.Contains(failed.Error, runstate.ErrVersion.Error()) {
		t.Fatalf("failed job's error %q does not carry %q", failed.Error, runstate.ErrVersion)
	}
}

// refDoneFit fetches a finished job's fit.
func refDoneFit(t *testing.T, m *Manager, id string) float64 {
	t.Helper()
	job, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return job.Result.Fit
}

func TestManagerWatchStreamsEvents(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 3, 12, 12, 12)
	_, m := newTestManager(t, filepath.Join(dir, "data"), 1)
	defer m.Drain()

	job, err := m.Submit(Spec{Input: tensor, Rank: 2, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Watch(job.ID, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	var names []string
	deadline := time.After(60 * time.Second)
	for {
		var terminal bool
		select {
		case e := <-ch:
			names = append(names, e.Name)
			if e.Name == "job.state" {
				j, err := m.Get(job.ID)
				if err != nil {
					t.Fatal(err)
				}
				terminal = j.State.Terminal()
			}
		case <-deadline:
			t.Fatalf("no terminal event within 60s (saw %d events)", len(names))
		}
		if terminal {
			break
		}
	}
	var sawState, sawRun bool
	for _, n := range names {
		if n == "job.state" {
			sawState = true
		} else {
			sawRun = true
		}
	}
	if !sawState || !sawRun {
		t.Fatalf("event stream incomplete: state=%v run=%v (%v)", sawState, sawRun, names[:min(len(names), 10)])
	}
	if _, _, err := m.Watch("j999999", 1); err != ErrNotFound {
		t.Fatalf("watch unknown job: %v, want ErrNotFound", err)
	}
}

// TestManagerConcurrentSubmissions exercises the full lifecycle under
// concurrency (run with -race): many goroutines submit at once, all jobs
// finish, and each job's record is coherent.
func TestManagerConcurrentSubmissions(t *testing.T) {
	dir := t.TempDir()
	tensor := filepath.Join(dir, "x.tptl")
	writeTensor(t, tensor, 5, 12, 12, 12)
	_, m := newTestManager(t, filepath.Join(dir, "data"), 4)
	defer m.Drain()

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := m.Submit(Spec{Input: tensor, Rank: 2, Seed: int64(i + 1)}, nil)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = job.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job ID %s", id)
		}
		seen[id] = true
		job := waitState(t, m, id, StateDone)
		if job.Result == nil || job.Result.Fit < 0.9 {
			t.Fatalf("job %s result = %+v", id, job.Result)
		}
	}
	if got := len(m.List()); got != n {
		t.Fatalf("List() = %d jobs, want %d", got, n)
	}
}

func TestStateTerminal(t *testing.T) {
	for s, want := range map[State]bool{
		StateQueued: false, StateRunning: false,
		StateDone: true, StateFailed: true, StateCanceled: true,
		StateInterrupted: true, StateQuarantined: true,
	} {
		if s.Terminal() != want {
			t.Errorf("%q.Terminal() = %v, want %v", s, !want, want)
		}
	}
}

func TestSpecNormalizeDefaults(t *testing.T) {
	var s Spec
	s.normalize()
	want := fmt.Sprintf("%+v", Spec{Parts: 2, Schedule: "HO", Replacement: "FOR",
		BufferFraction: 1.0, MaxIters: 100, Tol: 1e-2, Constraint: "none",
		Accelerator: "none", Seed: 1})
	if got := fmt.Sprintf("%+v", s); got != want {
		t.Fatalf("normalized spec = %s, want %s", got, want)
	}
}

// TestManagerReturnsJobMemory: a done job's blocks are garbage, and the
// manager collects them and returns their pages once the job is settled,
// so the heap goal serving starts from is below one block, not twice it.
func TestManagerReturnsJobMemory(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "x.tptl")
	const n = 128 // one block of 128³ cells: 16 MiB
	writeTensor(t, input, 3, n, n, n)
	_, m := newTestManager(t, filepath.Join(dir, "data"), 1)
	job, err := m.Submit(Spec{Input: input, Rank: 2, Parts: 1, MaxIters: 2, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID, StateDone)
	m.Drain() // the worker has left runJob
	goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(goal)
	if got, block := goal[0].Value.Uint64(), uint64(n*n*n*8); got >= block {
		t.Fatalf("heap goal after the job is %d bytes, want below the block's %d", got, block)
	}
}
