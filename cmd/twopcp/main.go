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
// docs/API.md. A local run and submit share one flag set and one set of
// defaults: every run flag writes a field of jobs.Spec, and a local run
// builds its Options through the same jobs.Spec.Options a daemon job
// does, so a job and a local run with the same flags are bit-identical.
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
	"twopcp/internal/cli"
	"twopcp/internal/jobs"
	"twopcp/internal/mat"
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

// specFlags binds one flag to every jobs.Spec field except Input and
// OutOfCore, which each front-end binds itself (-in and -store for a local
// run, -in and -out-of-core for submit). Both register this one table, and
// its defaults are jobs.DefaultSpec's. Spec.Options normalizes again, so an
// explicit zero (-seed 0, -parts 0) means the default, exactly as an
// omitted field of a JSON spec does.
func specFlags(fs *flag.FlagSet, s *jobs.Spec) {
	d := jobs.DefaultSpec()
	fs.IntVar(&s.Rank, "rank", 10, "decomposition rank F")
	fs.IntVar(&s.Parts, "parts", d.Parts, "partitions per mode (the paper's K)")
	fs.StringVar(&s.Schedule, "schedule", d.Schedule, "update schedule: MC, FO, ZO or HO")
	fs.StringVar(&s.Replacement, "replacement", d.Replacement, "buffer replacement: LRU, MRU or FOR")
	fs.Float64Var(&s.BufferFraction, "buffer", d.BufferFraction, "buffer size as a fraction of the total space requirement")
	fs.IntVar(&s.MaxIters, "iters", d.MaxIters, "max Phase-2 virtual iterations")
	fs.Float64Var(&s.Tol, "tol", d.Tol, "fit-improvement stopping threshold")
	fs.IntVar(&s.Workers, "workers", d.Workers, "blocks read at once by Phase 0, Phase 1 and the tiled fit pass (0 = GOMAXPROCS)")
	fs.IntVar(&s.KernelWorkers, "kernel-workers", d.KernelWorkers, "intra-kernel parallelism for MTTKRP/Gram/GEMM (0 = GOMAXPROCS, 1 = serial; results are identical at every setting)")
	fs.IntVar(&s.PrefetchDepth, "prefetch", d.PrefetchDepth, "Phase-2 prefetch depth in schedule steps (0 = synchronous)")
	fs.IntVar(&s.IOWorkers, "io-workers", d.IOWorkers, "Phase-2 prefetch workers (0 = auto when -prefetch > 0)")
	fs.StringVar(&s.Constraint, "constraint", d.Constraint, "row-update solver: none (least squares), ridge (Tikhonov-damped, needs -lambda) or nonneg (element-wise nonnegative factors)")
	fs.Float64Var(&s.Lambda, "lambda", d.Lambda, "ridge damping weight (required > 0 with -constraint ridge)")
	fs.StringVar(&s.Accelerator, "accelerator", d.Accelerator, "Phase-0 acceleration: none or tucker (compress-then-refine warm start)")
	fs.IntVar(&s.Phase0Rank, "phase0-rank", d.Phase0Rank, "per-mode Tucker basis rank for -accelerator tucker (0 = rank)")
	fs.IntVar(&s.SketchOversample, "sketch-oversample", d.SketchOversample, "extra Gaussian probe columns for the tucker range finder (0 = default 5)")
	fs.Int64Var(&s.Seed, "seed", d.Seed, "random seed")
	fs.IntVar(&s.CheckpointEverySteps, "checkpoint-steps", d.CheckpointEverySteps, "Phase-2 checkpoint cadence in schedule steps (0 = once per scheduling cycle)")
	fs.IntVar(&s.MaxRetries, "retry", d.MaxRetries, "max retries per operation for transient store/block faults (0 = resilience layer off)")
}

// localRun is a local run's command line: the shared run configuration
// plus the flags that only a run in this process has.
type localRun struct {
	spec                      jobs.Spec
	store, checkpoint, resume string
	outPrefix, jsonOut        string
	telemetry                 cli.Telemetry
	chaos                     twopcp.Chaos
}

// localFlags builds the local run's flag set, bound to a fresh localRun.
func localFlags() (*flag.FlagSet, *localRun) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	r := new(localRun)
	fs.StringVar(&r.spec.Input, "in", "", "input tensor file (.tpdn dense, .tpsp sparse or .tptl tiled; required)")
	specFlags(fs, &r.spec)
	fs.Func("store", "scratch `directory` for out-of-core data units, rebuilt on every start and never synced (empty = in-memory)", func(dir string) error {
		r.store, r.spec.OutOfCore = dir, dir != ""
		return nil
	})
	fs.StringVar(&r.checkpoint, "checkpoint", "", "directory for durable run checkpoints: a killed run can be restarted with -resume and picks up where the last checkpoint left off")
	fs.StringVar(&r.resume, "resume", "", "resume the run checkpointed in this directory (implies -checkpoint <dir>; the options must match the original run)")
	fs.StringVar(&r.outPrefix, "out-prefix", "", "write factor matrices to <prefix>-mode<i>.csv")
	fs.StringVar(&r.jsonOut, "json", "", "also write the result (fit, trace, swaps, timings) as JSON to this file (- for stdout)")
	fs.StringVar(&r.telemetry.TracePath, "trace", "", "append the structured run trace (JSONL events) to this file")
	fs.StringVar(&r.telemetry.MetricsPath, "metrics", "", "write a JSON metrics-registry snapshot to this file after the run")
	fs.StringVar(&r.telemetry.PprofAddr, "pprof", "", "serve net/http/pprof and a Prometheus /metrics endpoint on this address while the run executes (e.g. localhost:6060)")
	fs.DurationVar(&r.telemetry.Progress, "progress", 0, "print a progress line (fit, sweeps, blocks, I/O, buffer hit rate) to stderr at this interval (0 = off)")
	fs.Float64Var(&r.chaos.ReadRate, "fault-rate", cli.EnvFloat("TWOPCP_FAULT_RATE"), "chaos testing: per-read probability of an injected transient fault, one rate for Phase-1 block reads and Phase-2 store reads (default $TWOPCP_FAULT_RATE)")
	fs.Float64Var(&r.chaos.WriteRate, "fault-write-rate", 0, "chaos testing: per-op probability of an injected transient fault on store writes")
	fs.Int64Var(&r.chaos.Seed, "fault-seed", cli.EnvInt("TWOPCP_FAULT_SEED"), "chaos testing: fault-injection RNG seed (default $TWOPCP_FAULT_SEED)")
	fs.Func("fault-poison-blocks", "chaos testing: comma-separated Phase-1 block `ids` that fail permanently on every read", func(ids string) (err error) {
		r.chaos.PoisonBlocks, err = parseBlockList(ids)
		return err
	})
	return fs, r
}

// options builds the run's twopcp.Options through jobs.Spec.Options, the
// builder every daemon job uses, then applies the local-only flags.
func (r *localRun) options() (twopcp.Options, error) {
	checkpoint, resume := r.checkpoint, false
	if r.resume != "" {
		if checkpoint != "" && checkpoint != r.resume {
			return twopcp.Options{}, fmt.Errorf("-checkpoint %q and -resume %q name different directories", checkpoint, r.resume)
		}
		checkpoint, resume = r.resume, true
	}
	opts, err := r.spec.Options(checkpoint, r.store, resume)
	opts.Chaos = r.chaos
	return opts, err
}

// runLocal is the classic CLI path: parse the run flags, decompose the
// input in this process, print the summary.
func runLocal() {
	fs, r := localFlags()
	fs.Parse(os.Args[1:])
	if r.spec.Input == "" {
		fs.Usage()
		os.Exit(2)
	}
	opts, err := r.options()
	if err != nil {
		log.Fatal(err)
	}

	// Graceful drain: the first SIGTERM/SIGINT asks the run to finish its
	// in-flight step, write a checkpoint, and exit with code 3; a second
	// signal kills the process the usual way (the handler resets itself).
	opts.Stop = cli.InstallDrain("twopcp")

	// Telemetry: any of -trace/-metrics/-pprof/-progress switches the
	// observer on; without them opts.Observer stays nil and the run pays
	// essentially nothing. Telemetry never influences the computation —
	// results are bit-identical either way.
	tel, err := r.telemetry.Start()
	if err != nil {
		log.Fatal(err)
	}
	opts.Observer = tel.Observer

	res, dims, err := twopcp.DecomposeFile(r.spec.Input, opts)
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
	summary("rank       : %d   partitions: %d per mode\n", opts.Rank, opts.Partitions[0])
	summary("schedule   : %s   replacement: %s   buffer: %.2g×total\n", opts.Schedule, opts.Replacement, opts.BufferFraction)
	summary("kernels    : %s\n", mat.KernelPath())
	if opts.Constraint != twopcp.ConstraintNone {
		if opts.Constraint == twopcp.ConstraintRidge {
			summary("constraint : %s (lambda %g)\n", opts.Constraint, opts.Lambda)
		} else {
			summary("constraint : %s\n", opts.Constraint)
		}
	}
	if opts.Accelerator != twopcp.AccelNone {
		state := "fell back to brute force"
		if st.Accelerated {
			state = "active"
		}
		summary("accelerator: %s (%s)\n", opts.Accelerator, state)
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

	if r.outPrefix != "" {
		for m, f := range res.Model.Factors {
			path := fmt.Sprintf("%s-mode%d.csv", r.outPrefix, m)
			if err := cli.WriteFactorCSV(path, f); err != nil {
				log.Fatal(err)
			}
			summary("wrote %s (%d×%d)\n", path, f.Rows, f.Cols)
		}
	}
	if r.jsonOut != "" {
		if err := writeResultJSON(r.jsonOut, dims, res); err != nil {
			log.Fatal(err)
		}
		if r.jsonOut != "-" {
			summary("wrote %s\n", r.jsonOut)
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
			return nil, err
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
		Dims []int `json:"dims"`
		*jobs.Summary
	}{dims, jobs.NewSummary(res)}
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
