package main

import "fmt"

// metricDef names one reported metric. The two lists below are the single
// source the runs, BENCHMARK.json and README.md agree on; a test checks
// BENCHMARK.json against them.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
	// bound (end-to-end only): the share of the parent's median by which
	// the metric may worsen, and the A/A agreement bound.
	bound float64
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them, and none is ever 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "op_cal_ms", unit: "ms", bound: 0.25},
	{name: "cpu_cal_ms", unit: "ms", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.20},
	{name: "fit", unit: "ratio", higher: true, bound: 0.04},
	{name: "io_mb", unit: "MB", bound: 0.02},
}

// perLayer are the traced run's metrics, named layer.metric. Every
// workload's traced run reports every one; a layer that does not run in a
// workload reports 0 there, which is itself the layer-separation check.
var perLayer = []metricDef{
	// The input file (internal/tfile), through the wrapped TiledSource
	// and the fit pass's tile reads.
	{name: "tfile.block_read_ms", unit: "ms"},
	{name: "tfile.read_mb", unit: "MB"},
	{name: "tfile.read_mbps", unit: "MB/s", higher: true},
	// Phase 1 (internal/phase1): block ALS over the grid.
	{name: "phase1.run_ms", unit: "ms"},
	{name: "phase1.self_ms", unit: "ms"},
	{name: "phase1.sweeps", unit: "count"},
	{name: "phase1.ms_per_sweep", unit: "ms"},
	// Kernel replays on the workload's own block shape and rank.
	{name: "cpals.sweep_ms", unit: "ms"},
	{name: "tensor.mttkrp_ms", unit: "ms"},
	{name: "tensor.mttkrp_gflops", unit: "GFLOP/s", higher: true},
	{name: "tensor.mttkrp_bytes_per_flop", unit: "B/FLOP"},
	{name: "tensor.mttkrp_bw_frac", unit: "ratio", higher: true},
	{name: "tensor.mttkrp_share", unit: "ratio"},
	{name: "mem.stream_gbps", unit: "GB/s", higher: true},
	{name: "mat.gram_solve_ms", unit: "ms"},
	{name: "mat.mul_gflops", unit: "GFLOP/s", higher: true},
	// The whole op (package twopcp).
	{name: "twopcp.fit_pass_ms", unit: "ms"},
	{name: "twopcp.op_raw_ms", unit: "ms"},
	{name: "twopcp.solver_iters", unit: "count"},
	{name: "twopcp.cube256_cal_ms", unit: "ms"},
	{name: "twopcp.cube256_rss_mb", unit: "MB"},
	{name: "par.speedup_w2", unit: "ratio", higher: true},
	// Phase 2 (internal/refine) and its buffer manager.
	{name: "refine.setup_ms", unit: "ms"},
	{name: "refine.run_ms", unit: "ms"},
	{name: "refine.self_ms", unit: "ms"},
	{name: "refine.virtual_iters", unit: "count"},
	{name: "refine.ms_per_iter", unit: "ms"},
	{name: "buffer.swaps_per_iter", unit: "count"},
	{name: "buffer.hit_ratio", unit: "ratio", higher: true},
	{name: "buffer.swaps", unit: "count"},
	{name: "buffer.evictions", unit: "count"},
	{name: "buffer.write_backs", unit: "count"},
	// The unit store (internal/blockstore), through the wrapped Store.
	{name: "blockstore.gets", unit: "count"},
	{name: "blockstore.puts", unit: "count"},
	{name: "blockstore.get_ms", unit: "ms"},
	{name: "blockstore.put_ms", unit: "ms"},
	{name: "blockstore.get_us_p50", unit: "us"},
	{name: "blockstore.put_us_p50", unit: "us"},
	{name: "blockstore.put_encode_us_p50", unit: "us"},
	{name: "blockstore.read_mb", unit: "MB"},
	{name: "blockstore.write_mb", unit: "MB"},
	{name: "blockstore.store_mb", unit: "MB"},
	// Checkpoints (internal/runstate), through the wrapped Checkpointers.
	{name: "runstate.ckpt_ms", unit: "ms"},
	{name: "runstate.ckpt_writes", unit: "count"},
	{name: "runstate.ckpt_mb", unit: "MB"},
	// The daemon (internal/jobs), timed at the client.
	{name: "jobs.cell_ms", unit: "ms"},
	{name: "jobs.topk_ms", unit: "ms"},
	{name: "jobs.nn_ms", unit: "ms"},
	{name: "jobs.block_ms", unit: "ms"},
	{name: "jobs.req_p95_ms", unit: "ms"},
	{name: "jobs.resp_kb", unit: "KB"},
	{name: "jobs.job_s", unit: "s"},
	{name: "jobs.job_overhead_ms", unit: "ms"},
	{name: "jobs.http_overhead_us", unit: "us"},
	{name: "jobs.http_share", unit: "ratio"},
	{name: "jobs.block_encode_share", unit: "ratio"},
	// The query engine (internal/serve) and snapshots, replayed in process.
	{name: "serve.cell_us", unit: "us"},
	{name: "serve.topk_us", unit: "us"},
	{name: "serve.nn_us", unit: "us"},
	{name: "serve.block_us", unit: "us"},
	{name: "serve.engine_share", unit: "ratio"},
	{name: "factorsnap.open_ms", unit: "ms"},
	{name: "factorsnap.write_ms", unit: "ms"},
	// The box and the tracing itself.
	{name: "ref.pass_ms", unit: "ms"},
	{name: "ref.spread", unit: "ratio"},
	{name: "trace.overhead_pct", unit: "%"},
}

// layerReport collects a traced run's per-layer values; report fills in
// 0 for every metric the workload's layers did not produce.
type layerReport map[string]float64

func (l layerReport) report(res *runResult) error {
	for _, d := range perLayer {
		res.set(d.name, l[d.name], d.unit)
	}
	for name := range l {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("per-layer metric %q is not in the perLayer list", name)
		}
	}
	return nil
}
