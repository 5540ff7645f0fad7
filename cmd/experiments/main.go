// Command experiments regenerates the tables and figures of the 2PCP paper
// (ICDE 2016, §VIII) at a configurable scale.
//
// Usage:
//
//	experiments [flags] table1|fig11|table2|table3|fig12|fig13|convergence|accel|all
//
// Default sizes are scaled down from the paper's billion-scale runs so a
// full regeneration finishes in minutes on a laptop; -scale moves them
// back up (e.g. -scale 4 quadruples tensor sides). See EXPERIMENTS.md for
// recorded paper-vs-measured results.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"twopcp/internal/cli"
	"twopcp/internal/experiments"
	"twopcp/internal/par"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		scale      = flag.Int("scale", 1, "size multiplier toward paper scale")
		seed       = flag.Int64("seed", 1, "random seed")
		runs       = flag.Int("runs", 3, "repetitions for Figure 13 medians")
		prefetch   = flag.Int("prefetch", 0, "Phase-2 prefetch depth in schedule steps (0 = synchronous; counts are depth-invariant)")
		ioWorkers  = flag.Int("io-workers", 0, "Phase-2 prefetch workers (0 = auto when -prefetch > 0)")
		kworkers   = flag.Int("kernel-workers", 0, "intra-kernel parallelism for MTTKRP/Gram/GEMM (0 = GOMAXPROCS, 1 = serial; results are identical at every setting)")
		ckptDir    = flag.String("checkpoint", "", "directory for durable run checkpoints (one subdirectory per experiment run; honored by the convergence experiment)")
		resume     = flag.Bool("resume", false, "resume runs previously checkpointed under -checkpoint")
		constr     = flag.String("constraint", "none", "row-update solver for the convergence experiment: none, ridge (needs -lambda) or nonneg")
		lambda     = flag.Float64("lambda", 0, "ridge damping weight (with -constraint ridge)")
		traceOut   = flag.String("trace", "", "append the structured run trace (JSONL events) of every engine run to this file")
		metricsOut = flag.String("metrics", "", "write a JSON metrics-registry snapshot to this file after the experiments finish")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and a Prometheus /metrics endpoint on this address while the experiments run")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] table1|fig11|table2|table3|fig12|fig13|convergence|accel|all")
		os.Exit(2)
	}
	defer par.PopWorkers(par.PushWorkers(*kworkers))
	if *resume && *ckptDir == "" {
		log.Fatal("-resume requires -checkpoint")
	}
	ioCfg := experiments.IO{
		PrefetchDepth: *prefetch, IOWorkers: *ioWorkers,
		Checkpoint: *ckptDir, Resume: *resume,
		// Graceful drain on SIGTERM/SIGINT: the in-flight engine run
		// finishes its step and checkpoints (when -checkpoint is set); the
		// process exits with cli.ExitDrained so scripts can tell a drain
		// from a failure.
		Stop: cli.InstallDrain("experiments"),
	}
	tel, err := cli.Telemetry{
		TracePath:   *traceOut,
		MetricsPath: *metricsOut,
		PprofAddr:   *pprofAddr,
	}.Start()
	if err != nil {
		log.Fatal(err)
	}
	ioCfg.Observer = tel.Observer
	// exit flushes the trace and writes the metrics snapshot on every way
	// out, a drain and a failure included.
	exit := func(code int) {
		if err := tel.Close(); err != nil {
			log.Printf("telemetry: %v", err)
		}
		os.Exit(code)
	}
	which := flag.Arg(0)
	run := func(name string, f func() error) {
		if which != name && which != "all" {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			log.Printf("%s: %v", name, err)
			if errors.Is(err, experiments.ErrStopped) {
				// Drained: the checkpoint (if any) is written and a
				// -resume continues the run.
				exit(cli.ExitDrained)
			}
			exit(1)
		}
		// Progress/timing chatter goes to stderr; stdout carries only the
		// tables and figures themselves, so they can be piped or diffed.
		fmt.Fprintf(os.Stderr, "(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	var table1 *experiments.Table1Result
	run("table1", func() error {
		cfg := experiments.Table1Config{
			Sides: []int{32 * *scale, 48 * *scale, 64 * *scale},
			Seed:  *seed,
			IO:    ioCfg,
		}
		// The reducer cap scales with the workload so the largest side
		// exceeds it, as in the paper.
		cfg.HaTen2MemoryBytes = int64(700<<10) * int64(*scale) * int64(*scale) * int64(*scale)
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			return err
		}
		table1 = res
		fmt.Print(res)
		return nil
	})

	run("fig11", func() error {
		if table1 == nil {
			res, err := experiments.RunTable1(experiments.Table1Config{
				Sides:             []int{24 * *scale, 32 * *scale, 48 * *scale, 64 * *scale},
				Seed:              *seed,
				HaTen2MemoryBytes: 1 << 40, // fig11 only needs the 2PCP series
				IO:                ioCfg,
			})
			if err != nil {
				return err
			}
			table1 = res
		}
		fmt.Print(experiments.FormatFigure11(experiments.Figure11(table1)))
		return nil
	})

	run("table2", func() error {
		res, err := experiments.RunTable2(experiments.Table2Config{
			Side: 128 * *scale,
			Seed: *seed,
			IO:   ioCfg,
		})
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	})

	run("table3", func() error {
		fmt.Print(experiments.DefaultParamGrid())
		return nil
	})

	run("fig12", func() error {
		res, err := experiments.RunFigure12(experiments.Figure12Config{Seed: *seed, IO: ioCfg})
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	})

	run("accel", func() error {
		res, err := experiments.RunAccel(experiments.AccelConfig{
			Side: 24 * *scale, MLRank: 4, Rank: 8, Noise: 1e-5, Diag: true, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	})

	run("convergence", func() error {
		res, err := experiments.RunConvergence(experiments.ConvergenceConfig{
			Seed: *seed, IO: ioCfg, Constraint: *constr, Lambda: *lambda,
		})
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	})

	run("fig13", func() error {
		for _, iters := range []int{100, 200} {
			res, err := experiments.RunFigure13(experiments.Figure13Config{
				MaxVirtualIters: iters,
				Runs:            *runs,
				Seed:            *seed,
				IO:              ioCfg,
			})
			if err != nil {
				return err
			}
			fmt.Print(res)
			fmt.Println()
		}
		return nil
	})
	exit(0)
}
