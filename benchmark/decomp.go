package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"twopcp"
)

// decompSpec is one decomposition workload: an input tensor and the
// options of the op, which is one DecomposeFile call run to its result.
type decompSpec struct {
	name   string
	tensor tensorSpec
	// fitFloor fails an op whose fit lands below it.
	fitFloor float64
	// options returns the op's numerics and concurrency options; the
	// per-op directories are filled in by opDirs.
	options func(seed int64) twopcp.Options
	// checkpoint gives every op a fresh checkpoint directory.
	checkpoint bool
	// syncTwin, when set, is the workload whose options differ only in
	// the concurrency knobs: this workload's factors must hash equal to
	// one op run with the twin's options (the determinism contract).
	syncTwin *decompSpec
	// extras, when set, adds workload-specific points to the traced run.
	extras func(cfg runConfig, l layerReport, cal *calibrator, input string, plainCalMS float64) error
}

// neverConverge is a Phase-1 tolerance below any fit change a sweep can
// produce short of an exact repeat (zero would select the default).
const neverConverge = 1e-300

func oocCube(quick bool) *decompSpec {
	s := &decompSpec{
		name:     "ooc_cube",
		tensor:   tensorSpec{dims: []int{192, 192, 192}, tiles: []int{3, 3, 3}, genRank: 8, noise: 0.05},
		fitFloor: 0.85,
	}
	parts := 3
	if quick {
		s.tensor.dims = []int{24, 24, 24}
	}
	s.extras = s.cubeExtras
	s.options = func(seed int64) twopcp.Options {
		return twopcp.Options{
			Rank: 8, Partitions: []int{parts}, BufferFraction: 1.0 / 3,
			// Fixed work: a tolerance no sweep can meet makes every block
			// run all its sweeps. Left to converge, the sweep count moved
			// by 9 % between seeds (879..981), which alone would exceed
			// the spread the time metrics are allowed.
			Phase1MaxIters: 20, Phase1Tol: neverConverge,
			// Phase 2 likewise: four virtual iterations whatever the seed
			// (left to converge it stopped after three or four, and the
			// store traffic moved by a third with it).
			MaxIters: 4, Tol: math.Inf(-1),
			Workers: 1, KernelWorkers: 1, Seed: seed,
		}
	}
	return s
}

// cube256 is ooc_cube at ROADMAP's scale point: the same 64³ blocks,
// 4×4×4 of them. Its ~6 s op is too long for the bracket to calibrate
// well, so it is not a gated workload; the traced ooc_cube run runs it
// once in a child process and reports it as a per-layer metric.
func cube256() *decompSpec {
	s := oocCube(false)
	s.name = "cube256"
	s.tensor.dims, s.tensor.tiles = []int{256, 256, 256}, []int{4, 4, 4}
	s.extras = nil
	inner := s.options
	s.options = func(seed int64) twopcp.Options {
		o := inner(seed)
		o.Partitions = []int{4}
		return o
	}
	return s
}

func refineSwap(quick bool) *decompSpec {
	s := &decompSpec{
		name:     "refine_swap",
		tensor:   tensorSpec{dims: []int{128, 128, 128}, tiles: []int{4, 4, 4}, genRank: 16, noise: 0.05},
		fitFloor: 0.90,
	}
	parts, iters := 4, 40
	if quick {
		s.tensor.dims, s.tensor.tiles = []int{32, 32, 32}, []int{4, 4, 4}
		parts, iters = 4, 6
		s.fitFloor = 0.5
	}
	s.options = func(seed int64) twopcp.Options {
		return twopcp.Options{
			Rank: 16, Partitions: []int{parts}, BufferFraction: 1.0 / 3,
			Phase1MaxIters: 2, Phase1Tol: neverConverge, MaxIters: iters,
			// Never converge: every op runs all its virtual iterations,
			// so the work per op is fixed whatever the seed.
			Tol:     math.Inf(-1),
			Workers: 1, KernelWorkers: 1, Seed: seed,
		}
	}
	return s
}

func refineDurable(quick bool) *decompSpec {
	twin := refineSwap(quick)
	s := *twin
	s.name = "refine_durable"
	s.checkpoint = true
	s.syncTwin = twin
	s.options = func(seed int64) twopcp.Options {
		o := twin.options(seed)
		o.PrefetchDepth, o.IOWorkers = 2, 2
		return o
	}
	return &s
}

// opDirs completes opts with fresh per-op directories under dir.
func (s *decompSpec) opDirs(opts twopcp.Options, dir string) twopcp.Options {
	opts.StoreDir = filepath.Join(dir, "store")
	if s.checkpoint {
		opts.Checkpoint = filepath.Join(dir, "ckpt")
	}
	return opts
}

// opOutcome is what one op produced, for the oracle and the counts.
type opOutcome struct {
	res  *twopcp.Result
	hash string
	err  error
}

func (s *decompSpec) runOp(input string, opts twopcp.Options) opOutcome {
	res, _, err := twopcp.DecomposeFile(input, opts)
	if err != nil {
		return opOutcome{err: err}
	}
	return opOutcome{res: res, hash: factorHash(res.Model)}
}

// check applies the per-op oracle: no error, fit at or above the floor,
// factors bit-identical to the reference op's.
func (s *decompSpec) check(o opOutcome, refHash string) error {
	switch {
	case o.err != nil:
		return o.err
	case !(o.res.Fit >= s.fitFloor):
		return fmt.Errorf("fit %.6f below floor %.2f", o.res.Fit, s.fitFloor)
	case o.hash != refHash:
		return fmt.Errorf("factor hash %s differs from reference %s", o.hash[:12], refHash[:12])
	}
	return nil
}

// factorHash is a SHA-256 over the model's shape and the exact bits of
// every weight and factor entry.
func factorHash(m *twopcp.KTensor) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(m.Lambda)))
	for _, l := range m.Lambda {
		put(math.Float64bits(l))
	}
	for _, f := range m.Factors {
		put(uint64(f.Rows))
		put(uint64(f.Cols))
		for _, v := range f.Data {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setupRepeats is how many times a run sets up; setup_s is the calibrated
// time of the repeats.
const setupRepeats = 3

// setup generates the input setupRepeats times, each bracketed by
// reference samples, and returns the input path and the calibrated
// set-up time in seconds. It leaves the calibrator reset for the timed
// section.
func (s *decompSpec) setup(cal *calibrator, dir string, seed int64) (string, float64, error) {
	input := filepath.Join(dir, "input.tptl")
	var raw []float64
	for i := 0; i < setupRepeats; i++ {
		var err error
		op := cal.bracket(func() { err = s.tensor.generate(input, seed) })
		if err != nil {
			return "", 0, fmt.Errorf("generate input: %w", err)
		}
		raw = append(raw, op.wallMS/1e3)
	}
	secs := cal.calibrated(raw)
	cal.reset()
	return input, secs, nil
}

// runE2E is the untraced run of a decomposition workload: set up, warm
// up, then run ops back to back for cfg.seconds, each bracketed by
// reference samples and checked against the oracle.
func (s *decompSpec) runE2E(cfg runConfig) (*runResult, error) {
	cal := newCalibrator()
	input, setupS, err := s.setup(cal, cfg.workDir, cfg.seed)
	if err != nil {
		return nil, err
	}
	opts := s.options(cfg.seed)
	opNo := 0
	// Every op gets directories of its own, and none is removed before
	// the run ends: unlinking a thousand files between ops leaves the
	// file system's journal thread busy on the other hyperthread while
	// the next reference sample is taken.
	runOne := func(spec *decompSpec, o twopcp.Options) (opOutcome, timedOp) {
		opNo++
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("op%04d", opNo))
		var out opOutcome
		// Every op starts from a collected heap, so neither its time nor
		// the process's high-water mark depends on its predecessor's
		// garbage.
		runtime.GC()
		op := cal.bracket(func() { out = spec.runOp(input, spec.opDirs(o, dir)) })
		return out, op
	}

	// Warm-up: page cache and lazy initialisation, untimed. Its factors
	// are the reference every timed op must reproduce bit for bit.
	warm, _ := runOne(s, opts)
	if warm.err != nil {
		return nil, fmt.Errorf("warm-up op: %w", warm.err)
	}
	refHash := warm.hash
	res := newRunResult()
	if s.syncTwin != nil {
		twin, _ := runOne(s.syncTwin, s.syncTwin.options(cfg.seed))
		res.attempt(s.check(twin, refHash), "sync twin")
	}

	cal.reset()
	var ops []timedOp
	var last *twopcp.Result
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; n < cfg.minOps || time.Now().Before(deadline); n++ {
		out, op := runOne(s, opts)
		if res.attempt(s.check(out, refHash), "op") {
			ops = append(ops, op)
			last = out.res
		}
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "op %3d raw %9.2f ms  cpu %9.2f ms  ref %.3f ms\n", n, op.wallMS, op.cpuMS, cal.samples[len(cal.samples)-1])
		}
	}
	if last == nil {
		return res, nil
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS, "s")
	res.set("op_cal_ms", cal.calibrated(wallsOf(ops)), "ms")
	res.set("cpu_cal_ms", cal.calibrated(cpusOf(ops)), "ms")
	res.set("peak_rss_mb", rss, "MB")
	res.set("fit", last.Fit, "ratio")
	res.set("io_mb", float64(last.RunStats.BytesRead+last.RunStats.BytesWritten)/1e6, "MB")
	res.note("ops", float64(len(ops)))
	res.note("op_raw_ms", median(wallsOf(ops)))
	res.note("ref_pass_ms", median(cal.samples))
	res.note("ref_spread", cal.spread())
	res.note("solver_iters", float64(last.RunStats.Phase1Sweeps+last.VirtualIters))
	res.note("swaps_per_iter", last.RunStats.SwapsPerIter)
	return res, nil
}
