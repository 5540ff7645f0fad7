// Command benchmark is the repository's end-to-end benchmark: four
// workloads over the whole pipeline, calibrated times, exact counts and a
// per-layer budget measured from outside. See README.md.
//
// Run it through run.sh, which builds it and the daemon it drives:
//
//	bash benchmark/run.sh --workload ooc_cube --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh               # all four workloads, untraced
//	bash benchmark/run.sh -trace 1      # all four, traced: the per-layer metrics
//	bash benchmark/run.sh -aa           # two interleaved sets, compared
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// workload is one set of inputs the benchmark runs: run is the untraced
// run that reports the end-to-end metrics, trace the traced run that
// reports the per-layer ones.
type workload struct {
	name       string
	run, trace func(runConfig) (*runResult, error)
}

// gatedWorkloads are the workloads BENCHMARK.json lists, in its order.
var gatedWorkloads = []string{"ooc_cube", "refine_swap", "refine_durable", "query_mix"}

// workloads lists the gated workloads followed by the ungated helper the
// traced ooc_cube run executes in a child process.
func workloads(quick bool) []workload {
	var ws []workload
	for _, s := range []*decompSpec{oocCube(quick), refineSwap(quick), refineDurable(quick)} {
		ws = append(ws, workload{s.name, s.runE2E, s.runTrace})
	}
	q := queryMix(quick)
	ws = append(ws, workload{"query_mix", q.runE2E, q.runTrace})
	if !quick {
		c := cube256()
		ws = append(ws, workload{c.name, c.runE2E, c.runTrace})
	}
	return ws
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: ooc_cube, refine_swap, refine_durable, query_mix, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs, the ALS and the query stream")
		seconds = flag.Float64("seconds", 20, "length of the timed section of a run")
		trace   = flag.Int("trace", 0, "1 runs the traced stage chain and reports the per-layer metrics")
		aa      = flag.Bool("aa", false, "run every workload in two interleaved sets and compare them against the bounds")
		runs    = flag.Int("runs", 3, "with -aa: runs per set and workload")
		quick   = flag.Bool("quick", false, "toy shapes, one op: a smoke test, not a measurement")
		minOps  = flag.Int("minops", 3, "least number of timed ops, however short the run")
		verbose = flag.Bool("v", false, "print every op as it completes")
		workDir = flag.String("workdir", ".bench_work", "scratch directory (a fresh sub-directory is made and removed)")
		binDir  = flag.String("bin", ".bench_build", "directory holding the twopcpd binary run.sh built")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	if *aa || *name == "all" {
		exe, err := os.Executable()
		if err != nil {
			fatalf("%v", err)
		}
		s := &suite{exe: exe, args: []string{
			"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-minops", fmt.Sprint(*minOps),
			"-workdir", *workDir, "-bin", *binDir, fmt.Sprintf("-quick=%v", *quick), fmt.Sprintf("-v=%v", *verbose),
		}}
		if *aa {
			os.Exit(s.runAA(gatedWorkloads, *runs))
		}
		os.Exit(s.runAll(gatedWorkloads, *trace))
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, minOps: *minOps, trace: *trace != 0, quick: *quick, verbose: *verbose, binDir: *binDir}
	if *quick {
		cfg.seconds, cfg.minOps = 0, 1
	}
	for _, w := range workloads(*quick) {
		if w.name != *name {
			continue
		}
		if err := os.MkdirAll(*workDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		dir, err := os.MkdirTemp(*workDir, w.name+"-")
		if err != nil {
			fatalf("%v", err)
		}
		cfg.workDir, err = filepath.Abs(dir)
		if err != nil {
			fatalf("%v", err)
		}
		run := w.run
		if cfg.trace {
			run = w.trace
		}
		res, err := run(cfg)
		os.RemoveAll(dir)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if err := res.emit(os.Stdout, os.Stderr); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fatalf("unknown workload %q", *name)
}
