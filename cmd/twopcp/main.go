// Command twopcp decomposes a tensor file with the 2PCP two-phase CP
// decomposition and reports fit, timing and I/O statistics.
//
// Usage:
//
//	twopcp -in tensor.tpdn -rank 10 [flags]
//	twopcp submit|status|watch|cancel ...   (client mode, against twopcpd)
//	twopcp export-snapshot -checkpoint dir -out factors.snap
//
// The input format (dense .tpdn / sparse .tpsp / tiled .tptl) is detected
// from the file magic. Tiled inputs run fully out-of-core: Phase 1 reads
// grid blocks straight from the file, so peak memory stays bounded by the
// tile and buffer sizes rather than the tensor size (pair with -store to
// keep Phase 2 on disk too). Factor matrices can be exported with
// -out-prefix.
//
// Constrained decompositions are selected with -constraint: "ridge"
// damps every normal-equation solve with -lambda (Tikhonov), "nonneg"
// produces element-wise nonnegative factors. Both run through the same
// two-phase pipeline with the same determinism and crash-recovery
// guarantees; the constraint is part of the checkpoint fingerprint, so a
// -resume with a different -constraint or -lambda is rejected.
//
// Long runs survive crashes with -checkpoint <dir>: progress is
// checkpointed durably (per Phase-1 block, and per Phase-2 schedule step
// batch), and a killed run restarted with -resume <dir> skips completed
// work and finishes with bit-for-bit identical factors, fit trace and swap
// counts. See docs/crash-recovery.md.
//
// The submit, status, watch and cancel subcommands talk to a running
// twopcpd daemon instead of decomposing locally; see docs/service.md and
// docs/API.md.
//
// The export-snapshot subcommand packages a completed checkpointed run's
// factors into the mmap-able factor-snapshot format the query layer
// serves; see docs/serving.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"twopcp"
	"twopcp/internal/buffer"
	"twopcp/internal/cli"
	"twopcp/internal/mat"
	"twopcp/internal/schedule"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("twopcp: ")

	// Client subcommands are dispatched by the first argument; anything
	// else (including no arguments) is the classic local-run flag form.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit", "status", "watch", "cancel":
			os.Exit(clientMain(os.Args[1], os.Args[2:]))
		case "export-snapshot":
			os.Exit(exportSnapshotMain(os.Args[2:]))
		}
	}
	runLocal()
}

// runLocal is the classic CLI path: parse the run flags, decompose the
// input in this process, print the summary.
func runLocal() {
	var (
		in         = flag.String("in", "", "input tensor file (.tpdn dense or .tpsp sparse; required)")
		rank       = flag.Int("rank", 10, "decomposition rank F")
		parts      = flag.Int("parts", 2, "partitions per mode (the paper's K)")
		schedName  = flag.String("schedule", "HO", "update schedule: MC, FO, ZO or HO")
		polName    = flag.String("replacement", "FOR", "buffer replacement: LRU, MRU or FOR")
		frac       = flag.Float64("buffer", 1.0, "buffer size as a fraction of the total space requirement")
		maxIters   = flag.Int("iters", 100, "max Phase-2 virtual iterations")
		tol        = flag.Float64("tol", 1e-2, "fit-improvement stopping threshold")
		workers    = flag.Int("workers", 0, "blocks read at once by Phase 0, Phase 1 and the tiled fit pass (0 = GOMAXPROCS)")
		kworkers   = flag.Int("kernel-workers", 0, "intra-kernel parallelism for MTTKRP/Gram/GEMM (0 = GOMAXPROCS, 1 = serial; results are identical at every setting)")
		prefetch   = flag.Int("prefetch", 0, "Phase-2 prefetch depth in schedule steps (0 = synchronous)")
		ioWorkers  = flag.Int("io-workers", 0, "Phase-2 prefetch workers (0 = auto when -prefetch > 0)")
		storeDir   = flag.String("store", "", "scratch directory for out-of-core data units, rebuilt on every start and never synced (empty = in-memory)")
		constr     = flag.String("constraint", "none", "row-update solver: none (least squares), ridge (Tikhonov-damped, needs -lambda) or nonneg (element-wise nonnegative factors)")
		lambda     = flag.Float64("lambda", 0, "ridge damping weight (required > 0 with -constraint ridge)")
		accel      = flag.String("accelerator", "none", "Phase-0 acceleration: none or tucker (compress-then-refine warm start)")
		p0rank     = flag.Int("phase0-rank", 0, "per-mode Tucker basis rank for -accelerator tucker (0 = rank)")
		oversample = flag.Int("sketch-oversample", 0, "extra Gaussian probe columns for the tucker range finder (0 = default 5)")
		seed       = flag.Int64("seed", 1, "random seed")
		outPrefix  = flag.String("out-prefix", "", "write factor matrices to <prefix>-mode<i>.csv")
		ckptDir    = flag.String("checkpoint", "", "directory for durable run checkpoints: a killed run can be restarted with -resume and picks up where the last checkpoint left off")
		resumeDir  = flag.String("resume", "", "resume the run checkpointed in this directory (implies -checkpoint <dir>; the options must match the original run)")
		ckptSteps  = flag.Int("checkpoint-steps", 0, "Phase-2 checkpoint cadence in schedule steps (0 = once per scheduling cycle)")
		jsonOut    = flag.String("json", "", "also write the result (fit, trace, swaps, timings) as JSON to this file (- for stdout)")
		traceOut   = flag.String("trace", "", "append the structured run trace (JSONL events) to this file")
		metricsOut = flag.String("metrics", "", "write a JSON metrics-registry snapshot to this file after the run")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and a Prometheus /metrics endpoint on this address while the run executes (e.g. localhost:6060)")
		progress   = flag.Duration("progress", 0, "print a progress line (fit, sweeps, blocks, I/O, buffer hit rate) to stderr at this interval (0 = off)")
		retries    = flag.Int("retry", 0, "max retries per operation for transient store/block faults (0 = resilience layer off)")
		faultRate  = flag.Float64("fault-rate", cli.EnvFloat("TWOPCP_FAULT_RATE"), "chaos testing: per-op probability of an injected transient fault on store and block reads (default $TWOPCP_FAULT_RATE)")
		faultWRate = flag.Float64("fault-write-rate", 0, "chaos testing: per-op probability of an injected transient fault on store writes")
		faultSeed  = flag.Int64("fault-seed", cli.EnvInt("TWOPCP_FAULT_SEED"), "chaos testing: fault-injection RNG seed (default $TWOPCP_FAULT_SEED)")
		poison     = flag.String("fault-poison-blocks", "", "chaos testing: comma-separated Phase-1 block ids that fail permanently on every read")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	checkpoint, resume := *ckptDir, false
	if *resumeDir != "" {
		if checkpoint != "" && checkpoint != *resumeDir {
			log.Fatalf("-checkpoint %q and -resume %q name different directories", checkpoint, *resumeDir)
		}
		checkpoint, resume = *resumeDir, true
	}
	kind, err := schedule.ParseKind(*schedName)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := buffer.ParsePolicy(*polName)
	if err != nil {
		log.Fatal(err)
	}
	constraint, err := twopcp.ParseConstraint(*constr)
	if err != nil {
		log.Fatal(err)
	}
	accelerator, err := twopcp.ParseAccelerator(*accel)
	if err != nil {
		log.Fatal(err)
	}
	poisonBlocks, err := parseBlockList(*poison)
	if err != nil {
		log.Fatal(err)
	}
	opts := twopcp.Options{
		Rank:                 *rank,
		Partitions:           []int{*parts},
		Schedule:             kind,
		Replacement:          pol,
		BufferFraction:       *frac,
		MaxIters:             *maxIters,
		Tol:                  *tol,
		Workers:              *workers,
		KernelWorkers:        *kworkers,
		PrefetchDepth:        *prefetch,
		IOWorkers:            *ioWorkers,
		StoreDir:             *storeDir,
		Constraint:           constraint,
		Lambda:               *lambda,
		Accelerator:          accelerator,
		Phase0Rank:           *p0rank,
		SketchOversample:     *oversample,
		Seed:                 *seed,
		Checkpoint:           checkpoint,
		Resume:               resume,
		CheckpointEverySteps: *ckptSteps,
		Retry: twopcp.RetryPolicy{
			MaxRetries: *retries,
			Seed:       *seed,
		},
		Chaos: twopcp.Chaos{
			ReadRate:     *faultRate,
			WriteRate:    *faultWRate,
			BlockRate:    *faultRate,
			PoisonBlocks: poisonBlocks,
			Seed:         *faultSeed,
		},
	}

	// Graceful drain: the first SIGTERM/SIGINT asks the run to finish its
	// in-flight step, write a checkpoint, and exit with code 3; a second
	// signal kills the process the usual way (the handler resets itself).
	opts.Stop = cli.InstallDrain("twopcp")

	// Telemetry: any of -trace/-metrics/-pprof/-progress switches the
	// observer on; without them opts.Observer stays nil and the run pays
	// essentially nothing. Telemetry never influences the computation —
	// results are bit-identical either way.
	tel, err := cli.Telemetry{
		TracePath:   *traceOut,
		MetricsPath: *metricsOut,
		PprofAddr:   *pprofAddr,
		Progress:    *progress,
	}.Start()
	if err != nil {
		log.Fatal(err)
	}
	opts.Observer = tel.Observer

	res, dims, err := twopcp.DecomposeFile(*in, opts)
	if cerr := tel.Close(); cerr != nil {
		log.Printf("telemetry: %v", cerr)
	}
	if err != nil {
		// Typed resilience outcomes get distinct exit codes so scripts can
		// tell a drained or quarantined — and therefore resumable — run
		// from a hard failure.
		log.Print(err)
		os.Exit(cli.ExitCode(err))
	}

	// The whole human-readable summary goes to stderr: stdout is reserved
	// for machine-parseable output (of which the CLI currently produces
	// none — results travel via -json/-out-prefix files). A regression
	// test pins stdout empty, so tools piping from twopcp stay safe.
	summary := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
	}
	st := res.RunStats
	summary("tensor     : %v\n", dims)
	summary("rank       : %d   partitions: %d per mode\n", *rank, *parts)
	summary("schedule   : %s   replacement: %s   buffer: %.2g×total\n", kind, pol, *frac)
	summary("kernels    : %s\n", mat.KernelPath())
	if constraint != twopcp.ConstraintNone {
		if constraint == twopcp.ConstraintRidge {
			summary("constraint : %s (lambda %g)\n", constraint, *lambda)
		} else {
			summary("constraint : %s\n", constraint)
		}
	}
	if accelerator != twopcp.AccelNone {
		state := "fell back to brute force"
		if st.Accelerated {
			state = "active"
		}
		summary("accelerator: %s (%s)\n", accelerator, state)
	}
	summary("fit        : %.6f\n", res.Fit)
	if st.Phase0Time > 0 {
		summary("phase 0    : %v\n", st.Phase0Time)
	}
	summary("phase 1    : %v  (%d blocks, %d ALS sweeps)\n", st.Phase1Time, st.Blocks, st.Phase1Sweeps)
	summary("phase 2    : %v  (%d virtual iterations, converged=%v)\n",
		st.Phase2Time, res.VirtualIters, res.Converged)
	summary("data swaps : %d total, %.3f per virtual iteration (buffer hit rate %.1f%%)\n",
		st.Swaps, st.SwapsPerIter, 100*st.BufferHitRate)
	summary("store I/O  : %d bytes read, %d bytes written\n", st.BytesRead, st.BytesWritten)
	if st.Retries > 0 {
		summary("resilience : %d transient-fault retries absorbed\n", st.Retries)
	}

	if *outPrefix != "" {
		for m, f := range res.Model.Factors {
			path := fmt.Sprintf("%s-mode%d.csv", *outPrefix, m)
			if err := cli.WriteFactorCSV(path, f); err != nil {
				log.Fatal(err)
			}
			summary("wrote %s (%d×%d)\n", path, f.Rows, f.Cols)
		}
	}
	if *jsonOut != "" {
		if err := writeResultJSON(*jsonOut, dims, res); err != nil {
			log.Fatal(err)
		}
		if *jsonOut != "-" {
			summary("wrote %s\n", *jsonOut)
		}
	}
}

// parseBlockList parses the -fault-poison-blocks comma-separated id list.
func parseBlockList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var ids []int
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -fault-poison-blocks entry %q: %w", part, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// writeResultJSON records the run's deterministic outputs (plus timings)
// for tooling — the CI crash-recovery job diffs these files between an
// interrupted-and-resumed run and an uninterrupted one.
func writeResultJSON(path string, dims []int, res *twopcp.Result) error {
	out := struct {
		Dims         []int           `json:"dims"`
		Fit          float64         `json:"fit"`
		VirtualIters int             `json:"virtual_iters"`
		Converged    bool            `json:"converged"`
		FitTrace     []float64       `json:"fit_trace"`
		RunStats     twopcp.RunStats `json:"run_stats"`
	}{dims, res.Fit, res.VirtualIters, res.Converged, res.FitTrace, res.RunStats}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if path == "-" {
		// The one thing that legitimately goes to stdout: the JSON object
		// itself, with nothing around it.
		_, err := os.Stdout.Write(append(data, '\n'))
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
