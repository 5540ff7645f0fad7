// The export-snapshot subcommand: package a completed checkpointed run's
// factors into the mmap-able factor-snapshot file the query layer
// (internal/serve, the daemon's /query routes) serves.

package main

import (
	"flag"
	"fmt"
	"os"

	"twopcp/internal/factorsnap"
	"twopcp/internal/runstate"
)

// exportSnapshotMain reads a finished run's result checkpoint and writes
// the factor snapshot, stamped with the run's option fingerprint.
func exportSnapshotMain(args []string) int {
	fs := flag.NewFlagSet("export-snapshot", flag.ExitOnError)
	ckpt := fs.String("checkpoint", "", "completed run's checkpoint directory (required)")
	out := fs.String("out", "", "snapshot output path (required)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: twopcp export-snapshot -checkpoint <dir> -out <factors.snap>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *ckpt == "" || *out == "" {
		fs.Usage()
		return 2
	}

	st, err := runstate.ReadResult(*ckpt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twopcp: %v\n", err)
		return 1
	}
	if len(st.Factors) == 0 {
		fmt.Fprintf(os.Stderr, "twopcp: result in %s holds no factor matrices\n", *ckpt)
		return 1
	}
	// Checkpointed factors carry λ folded in (the pipeline normalizes
	// before saving), so the exported weights are all ones — matching
	// what a resume of this run would return.
	lambda := make([]float64, st.Factors[0].Cols)
	for f := range lambda {
		lambda[f] = 1
	}
	var meta *runstate.Meta
	if mt, merr := runstate.ReadMeta(*ckpt); merr == nil {
		meta = &mt
	}
	if err := factorsnap.Write(*out, lambda, st.Factors, meta); err != nil {
		fmt.Fprintf(os.Stderr, "twopcp: %v\n", err)
		return 1
	}
	dims := make([]int, len(st.Factors))
	for n, f := range st.Factors {
		dims[n] = f.Rows
	}
	info, err := os.Stat(*out)
	size := int64(0)
	if err == nil {
		size = info.Size()
	}
	fmt.Fprintf(os.Stderr, "exported snapshot %s: dims %v rank %d (%d bytes)\n",
		*out, dims, st.Factors[0].Cols, size)
	return 0
}
