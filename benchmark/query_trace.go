package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"twopcp"
	"twopcp/internal/factorsnap"
	"twopcp/internal/mat"
	"twopcp/internal/serve"
)

// runTrace is query_mix's traced run: the same batches, every other one
// recorded request by request at the client, then the same query stream
// replayed in process on the job's snapshot, so a request's time splits
// into the engine's share and what HTTP, routing and encoding add.
func (q *querySpec) runTrace(cfg runConfig) (*runResult, error) {
	cal := newCalibrator()
	run, err := q.measure(cfg, cal)
	if err != nil {
		return nil, err
	}
	defer run.sv.d.stop()
	res := run.res
	if len(run.plain) == 0 || len(run.traced) == 0 {
		return res, nil
	}
	l := layerReport{}

	// Client side: per-route medians and the request tail.
	var byRoute [numRoutes][]float64
	var all []float64
	for _, sp := range run.tr.snapshot() {
		for route, name := range routeSpans {
			if sp.Name == name {
				byRoute[route] = append(byRoute[route], sp.ms())
				all = append(all, sp.ms())
			}
		}
	}
	for route, name := range routeNames {
		l["jobs."+name+"_ms"] = median(byRoute[route])
	}
	l["jobs.req_p95_ms"] = quantile(all, 0.95)
	l["jobs.resp_kb"] = float64(run.respBytes) / 1e3
	l["jobs.job_s"] = run.sv.jobS
	// Traced and plain batches alternate, so one factor calibrates both
	// and cancels in their ratio.
	l["trace.overhead_pct"] = 100 * (median(wallsOf(run.traced))/median(wallsOf(run.plain)) - 1)
	l["ref.pass_ms"] = median(cal.samples)
	l["ref.spread"] = cal.spread()

	// The job path's cost over the library's: the same file and options
	// decomposed in this process. Its factors must equal the served ones
	// exactly (a job decomposes bit-identically to a local run).
	local, localMS, err := q.localRun(cfg, run.sv.input)
	if err != nil {
		return nil, err
	}
	res.attempt(sameFactors(local.Model, run.model), "job factors against a local run")
	l["jobs.job_overhead_ms"] = run.sv.jobS*1e3 - localMS

	// Engine side: the warm-up batch's requests against serve.Open of the
	// job's snapshot, timed call by call.
	snapPath := filepath.Join(run.sv.d.dataDir, run.sv.job.ID, "factors.snap")
	engineUS, err := q.replayEngine(run.tr, snapPath, run.stream)
	if err != nil {
		return nil, err
	}
	for route, name := range routeNames {
		l["serve."+name+"_us"] = engineUS[route]
	}
	l["factorsnap.open_ms"] = timeMedianMS(func() {
		if s, err := factorsnap.Open(snapPath); err == nil {
			s.Close()
		}
	})
	factors := make([]*mat.Matrix, len(run.model.factors))
	for m, f := range run.model.factors {
		factors[m] = mat.FromSlice(run.model.dims[m], q.rank, f)
	}
	lambda := make([]float64, q.rank)
	for i := range lambda {
		lambda[i] = 1
	}
	var writeErr error
	l["factorsnap.write_ms"] = timeMedianMS(func() {
		if err := factorsnap.Write(filepath.Join(cfg.workDir, "replay.snap"), lambda, factors, nil); err != nil {
			writeErr = err
		}
	})
	if writeErr != nil {
		return nil, writeErr
	}

	// How a batch's time splits: the per-request floor HTTP and routing
	// add to a cell read, the engine's own work, and encoding the block
	// responses (a block request's time beyond the engine and the floor).
	counts := [numRoutes]float64{float64(q.cells), float64(q.topks), float64(q.nns), float64(q.blocks)}
	batchMS := median(wallsOf(run.traced))
	httpUS := l["jobs.cell_ms"]*1e3 - engineUS[routeCell]
	l["jobs.http_overhead_us"] = httpUS
	engineMS, requests := 0.0, 0.0
	for route, n := range counts {
		engineMS += n * engineUS[route] / 1e3
		requests += n
	}
	l["jobs.http_share"] = requests * httpUS / 1e3 / batchMS
	l["serve.engine_share"] = engineMS / batchMS
	l["jobs.block_encode_share"] = counts[routeBlock] * (l["jobs.block_ms"] - engineUS[routeBlock]/1e3 - httpUS/1e3) / batchMS

	if err := writeJSONL(filepath.Join(filepath.Dir(cfg.workDir), "trace-query_mix.jsonl"), run.tr.snapshot()); err != nil {
		return nil, err
	}
	if err := l.report(res); err != nil {
		return nil, err
	}
	res.note("traced_batches", float64(len(run.traced)))
	return res, nil
}

// localRun decomposes the job's input in this process with the options
// the daemon derives from the job's spec (its defaults included), and
// returns the result and the raw time in milliseconds.
func (q *querySpec) localRun(cfg runConfig, input string) (*twopcp.Result, float64, error) {
	dir := filepath.Join(cfg.workDir, "local")
	defer os.RemoveAll(dir)
	opts := twopcp.Options{
		Rank: q.rank, Partitions: []int{q.parts},
		Schedule: twopcp.HilbertOrder, Replacement: twopcp.Forward,
		BufferFraction: 1, MaxIters: 100, Tol: jobTol,
		Workers: 1, KernelWorkers: 1, Seed: cfg.seed,
		// The daemon always checkpoints a job.
		Checkpoint: filepath.Join(dir, "ckpt"),
	}
	start := time.Now()
	res, _, err := twopcp.DecomposeFile(input, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("local run of the job: %w", err)
	}
	return res, msSince(start), nil
}

// sameFactors reports whether the model's factor entries equal the
// downloaded ones bit for bit.
func sameFactors(m *twopcp.KTensor, served *kruskal) error {
	for mode, f := range m.Factors {
		if len(f.Data) != len(served.factors[mode]) {
			return fmt.Errorf("mode %d: %d entries locally, %d served", mode, len(f.Data), len(served.factors[mode]))
		}
		for i, v := range f.Data {
			if math.Float64bits(v) != math.Float64bits(served.factors[mode][i]) {
				return fmt.Errorf("mode %d entry %d: %.17g locally, %.17g served", mode, i, v, served.factors[mode][i])
			}
		}
	}
	return nil
}

// replayEngine answers reqs in process on the snapshot and returns the
// median time per call of each route in microseconds. Each call is also
// recorded as a serve.<route> span of op 0.
func (q *querySpec) replayEngine(tr *tracer, snapPath string, reqs []request) ([numRoutes]float64, error) {
	var us [numRoutes]float64
	mdl, err := serve.Open(snapPath, serve.Config{})
	if err != nil {
		return us, err
	}
	defer mdl.Close()
	var times [numRoutes][]float64
	var scoredBuf []serve.Scored
	var block []float64
	// Two passes; the first warms the engine's pools and row cache the
	// way the daemon's were warm, and only the second is kept.
	for pass := 0; pass < 2; pass++ {
		for _, r := range reqs {
			id := 0
			if pass == 1 {
				id = tr.begin("serve."+routeNames[r.route], 0, 0)
			}
			start := time.Now()
			switch r.route {
			case routeCell:
				_, err = mdl.Reconstruct(r.at)
			case routeTopK:
				scoredBuf, err = mdl.TopK(0, r.at, q.k, scoredBuf[:0])
			case routeNN:
				scoredBuf, err = mdl.NN(0, r.index, q.k, scoredBuf[:0])
			case routeBlock:
				block, err = mdl.ReconstructBlock(r.lo, r.hi, block)
			}
			elapsed := msSince(start) * 1e3
			if err != nil {
				return us, err
			}
			if pass == 1 {
				tr.end(id, 0)
				times[r.route] = append(times[r.route], elapsed)
			}
		}
	}
	for route := range us {
		us[route] = median(times[route])
	}
	return us, nil
}
