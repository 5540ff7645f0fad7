package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"twopcp/internal/grid"
)

// runTrace is the traced run of a decomposition workload. It alternates
// plain DecomposeFile ops with staged, recorded ops for cfg.seconds — the
// two kinds share the machine's mood, so their ratio is the tracing
// overhead — then derives the per-layer metrics from the spans, replays
// the kernels, and writes trace-<workload>.jsonl beside the scratch dir.
func (s *decompSpec) runTrace(cfg runConfig) (*runResult, error) {
	cal := newCalibrator()
	input, _, err := s.setup(cal, cfg.workDir, cfg.seed)
	if err != nil {
		return nil, err
	}
	opts := s.options(cfg.seed)
	tr := newTracer()
	opNo := 0
	bracketed := func(fn func(dir string)) timedOp {
		opNo++
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("op%04d", opNo))
		runtime.GC()
		return cal.bracket(func() { fn(dir) })
	}

	var warm opOutcome
	bracketed(func(dir string) { warm = s.runOp(input, s.opDirs(opts, dir)) })
	if warm.err != nil {
		return nil, fmt.Errorf("warm-up op: %w", warm.err)
	}
	cal.reset()
	res := newRunResult()
	var plain, staged []timedOp
	var outcomes []stagedOutcome
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; n < cfg.minOps || time.Now().Before(deadline); n++ {
		var p opOutcome
		op := bracketed(func(dir string) { p = s.runOp(input, s.opDirs(opts, dir)) })
		if res.attempt(s.check(p, warm.hash), "plain op") {
			plain = append(plain, op)
		}
		var st stagedOutcome
		op = bracketed(func(dir string) { st = s.runStaged(tr, opNo, input, s.opDirs(opts, dir)) })
		if res.attempt(s.checkStaged(st, warm.hash, warm.res.Fit), "staged op") {
			staged = append(staged, op)
			outcomes = append(outcomes, st)
		}
	}
	if len(staged) == 0 || len(plain) == 0 {
		return res, nil
	}

	spans := tr.snapshot()
	tracePath := filepath.Join(filepath.Dir(cfg.workDir), "trace-"+s.name+".jsonl")
	if err := writeJSONL(tracePath, spans); err != nil {
		return nil, err
	}
	l := layerReport{}
	s.layerMetrics(l, spans, outcomes)
	// Plain and staged ops alternate, so one factor calibrates both and
	// cancels in their ratio.
	rawMS := median(wallsOf(staged))
	plainCal := cal.calibrated(wallsOf(plain))
	l["twopcp.op_raw_ms"] = rawMS
	l["ref.pass_ms"] = median(cal.samples)
	l["ref.spread"] = cal.spread()
	l["trace.overhead_pct"] = 100 * (cal.calibrated(wallsOf(staged))/plainCal - 1)

	p := grid.UniformCube(len(s.tensor.dims), s.tensor.dims[0], opts.Partitions[0])
	_, blockDims := p.Block(make([]int, len(s.tensor.dims)))
	streamBytes := streamArrayBytes
	if cfg.quick {
		streamBytes = 32 << 20 // a smoke run only checks that the number appears
	}
	replayKernels(l, blockDims, opts.Rank, outcomes[0].sweeps, rawMS, streamBytes)
	replayEncode(l, blockDims[0], opts.Rank, p.SlabSize(0))

	if s.extras != nil {
		if err := s.extras(cfg, l, cal, input, plainCal); err != nil {
			return nil, err
		}
	}
	if err := l.report(res); err != nil {
		return nil, err
	}
	res.note("staged_ops", float64(len(staged)))
	res.note("spans", float64(len(spans)))
	return res, nil
}

// layerMetrics turns the staged ops' spans and boundary counts into the
// per-layer metrics: per op first, then the median over the ops.
func (s *decompSpec) layerMetrics(l layerReport, spans []span, outcomes []stagedOutcome) {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	totals := totalsByOp(spans)
	perOp := map[string][]float64{}
	add := func(name string, v float64) { perOp[name] = append(perOp[name], v) }
	for _, o := range outcomes {
		root := byID[o.root]
		t := totals[root.Op]
		get := func(name string) nameTotals {
			if v := t[name]; v != nil {
				return *v
			}
			return nameTotals{}
		}
		// Each stage runs once per op, so the stage's span is the op's
		// only span of that name.
		stageSelf := func(name string) float64 {
			for _, sp := range spans {
				if sp.Op == root.Op && sp.Name == name {
					return float64(self[sp.ID]) / 1e6
				}
			}
			return 0
		}
		block, tile := get(spanBlockRead), get(spanTileRead)
		add("tfile.block_read_ms", block.ms)
		readMB := float64(block.bytes+tile.bytes) / 1e6
		add("tfile.read_mb", readMB)
		if ms := block.ms + tile.ms; ms > 0 {
			add("tfile.read_mbps", readMB/(ms/1e3))
		}

		p1 := get(spanPhase1)
		add("phase1.run_ms", p1.ms)
		add("phase1.self_ms", stageSelf(spanPhase1))
		add("phase1.sweeps", float64(o.sweeps))
		if o.sweeps > 0 {
			add("phase1.ms_per_sweep", stageSelf(spanPhase1)/float64(o.sweeps))
		}

		setup, run := get(spanRefineSetup), get(spanRefineRun)
		add("refine.setup_ms", setup.ms)
		add("refine.run_ms", run.ms)
		add("refine.self_ms", stageSelf(spanRefineRun))
		add("refine.virtual_iters", float64(o.res.VirtualIters))
		if o.res.VirtualIters > 0 {
			add("refine.ms_per_iter", run.ms/float64(o.res.VirtualIters))
		}
		// The fit pass and the glue: what the op spends outside both phases.
		add("twopcp.fit_pass_ms", root.ms()-p1.ms-setup.ms-run.ms)
		add("twopcp.solver_iters", float64(o.sweeps+o.res.VirtualIters))

		add("buffer.swaps_per_iter", o.res.RunStats.SwapsPerIter)
		if acq := o.buffer.hits + o.buffer.fetches; acq > 0 {
			add("buffer.hit_ratio", float64(o.buffer.hits)/float64(acq))
		}
		add("buffer.swaps", float64(o.buffer.fetches))
		add("buffer.evictions", float64(o.buffer.evictions))
		add("buffer.write_backs", float64(o.buffer.writeBacks))

		g, p := get(spanGet), get(spanPut)
		add("blockstore.gets", float64(g.calls))
		add("blockstore.puts", float64(p.calls))
		add("blockstore.get_ms", g.ms)
		add("blockstore.put_ms", p.ms)
		add("blockstore.read_mb", float64(g.bytes)/1e6)
		add("blockstore.write_mb", float64(p.bytes)/1e6)
		add("blockstore.store_mb", float64(o.res.RunStats.BytesRead+o.res.RunStats.BytesWritten)/1e6)

		var ck nameTotals
		for _, name := range []string{spanCkptBlock, spanCkptPhase2, spanCkptResult} {
			c := get(name)
			ck.ms += c.ms
			ck.calls += c.calls
			ck.bytes += c.bytes
		}
		add("runstate.ckpt_ms", ck.ms)
		add("runstate.ckpt_writes", float64(ck.calls))
		add("runstate.ckpt_mb", float64(ck.bytes)/1e6)
	}
	for name, vals := range perOp {
		l[name] = median(vals)
	}
	// Single-call latencies: the median over every call of every staged op.
	var gets, puts []float64
	for _, sp := range spans {
		switch sp.Name {
		case spanGet:
			gets = append(gets, sp.ms()*1e3)
		case spanPut:
			puts = append(puts, sp.ms()*1e3)
		}
	}
	l["blockstore.get_us_p50"] = median(gets)
	l["blockstore.put_us_p50"] = median(puts)
}

// cubeExtras adds ooc_cube's scale and parallelism points: one 256³ op
// in a child process of its own (so its peak RSS is its own), and one op
// at two workers against the single-worker median.
func (s *decompSpec) cubeExtras(cfg runConfig, l layerReport, cal *calibrator, input string, plainCal float64) error {
	if runtime.NumCPU() >= 2 {
		opts := s.options(cfg.seed)
		opts.Workers, opts.KernelWorkers = 2, 2
		// Three ops, calibrated by their own samples: the kernel replays
		// ran in between, and the box may have changed.
		cal.reset()
		var ops []timedOp
		for i := 0; i < 3; i++ {
			dir := filepath.Join(cfg.workDir, fmt.Sprintf("w2-%d", i))
			var out opOutcome
			runtime.GC()
			ops = append(ops, cal.bracket(func() { out = s.runOp(input, s.opDirs(opts, dir)) }))
			if out.err != nil {
				return fmt.Errorf("two-worker op: %w", out.err)
			}
		}
		l["par.speedup_w2"] = plainCal / cal.calibrated(wallsOf(ops))
	}
	if cfg.quick {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	child, err := (&suite{exe: exe, args: []string{
		"-seed", fmt.Sprint(cfg.seed), "-seconds", "0", "-minops", "1",
		"-workdir", filepath.Dir(cfg.workDir), "-bin", cfg.binDir,
	}}).runChild("cube256", 0)
	if err != nil {
		return err
	}
	if !child.Correct {
		return fmt.Errorf("cube256 child reported %d failed ops", child.Failed)
	}
	l["twopcp.cube256_cal_ms"] = child.Metrics["op_cal_ms"].Value
	l["twopcp.cube256_rss_mb"] = child.Metrics["peak_rss_mb"].Value
	return nil
}
