package main

import (
	"bytes"
	"math/rand"
	"time"

	"twopcp/internal/blockstore"
	"twopcp/internal/cpals"
	"twopcp/internal/mat"
	"twopcp/internal/par"
	"twopcp/internal/tensor"
)

// Kernel replays: the compute layers below Phase 1 (cpals, tensor, mat)
// cannot be wrapped from outside, so the traced run calls their public
// functions directly on one block of the workload's own shape and rank,
// single-threaded like the op, and takes the median of a few repeats.

const replayRepeats = 7

// timeMedianMS runs fn replayRepeats times (after one warm-up call) and
// returns the median time of a call in milliseconds.
func timeMedianMS(fn func()) float64 {
	fn()
	times := make([]float64, replayRepeats)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = msSince(start)
	}
	return median(times)
}

// streamLLCBytes is the last-level cache the stream measurement must
// defeat: this box reports a 260 MiB L3 plus two 2 MiB L2s.
// streamArrayBytes is the array it reads, five times that (the rule is at
// least four).
const (
	streamLLCBytes   = 264 << 20
	streamArrayBytes = 5 * streamLLCBytes
)

// streamGBps measures the sustainable single-thread read bandwidth: the
// best of three summing passes over an array of arrayBytes, which a real
// run makes more than four times the last-level cache.
func streamGBps(arrayBytes int) float64 {
	a := make([]float64, arrayBytes/8)
	for i := range a {
		a[i] = 1
	}
	best := 0.0
	sink := 0.0
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		var s0, s1, s2, s3 float64
		for i := 0; i+3 < len(a); i += 4 {
			s0 += a[i]
			s1 += a[i+1]
			s2 += a[i+2]
			s3 += a[i+3]
		}
		sink += s0 + s1 + s2 + s3
		if gbps := float64(arrayBytes) / 1e9 / time.Since(start).Seconds(); gbps > best {
			best = gbps
		}
	}
	if sink == 0 {
		return 0
	}
	return best
}

// replayKernels fills the cpals/tensor/mat/mem metrics for a block of
// blockDims at rank. sweeps and opMS (the op's Phase-1 sweep count and
// raw time) turn the MTTKRP call time into its share of the op.
func replayKernels(l layerReport, blockDims []int, rank, sweeps int, opMS float64, streamBytes int) {
	defer par.PopWorkers(par.PushWorkers(1))
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomDense(rng, blockDims...)
	factors := make([]*mat.Matrix, len(blockDims))
	for m, d := range blockDims {
		factors[m] = mat.Random(d, rank, rng)
	}

	// One ALS sweep through the public cpals entry point: a 6-sweep run
	// minus a 1-sweep run, over 5, so initialisation and the final fit
	// cancel.
	als := func(iters int) func() {
		ws := cpals.NewWorkspace()
		return func() {
			cpals.Decompose(x, cpals.Options{Rank: rank, MaxIters: iters, Tol: neverConverge, Init: factors, Workspace: ws})
		}
	}
	l["cpals.sweep_ms"] = (timeMedianMS(als(6)) - timeMedianMS(als(1))) / 5

	// MTTKRP, averaged over the modes.
	cells := 1.0
	rows := 0.0
	for _, d := range blockDims {
		cells *= float64(d)
		rows += float64(d)
	}
	dsts := make([]*mat.Matrix, len(blockDims))
	for m, d := range blockDims {
		dsts[m] = mat.New(d, rank)
	}
	nModes := float64(len(blockDims))
	callMS := timeMedianMS(func() {
		for m := range blockDims {
			tensor.MTTKRPInto(dsts[m], x, factors, m)
		}
	}) / nModes
	// Computed, not measured: 2 flops per cell and component; the bytes
	// are the compulsory traffic of the dense data-movement model — the
	// block once, the factors and the output once.
	flops := 2 * cells * float64(rank)
	bytes := 8 * (cells + 2*rows*float64(rank))
	l["tensor.mttkrp_ms"] = callMS
	l["tensor.mttkrp_gflops"] = flops / (callMS * 1e6)
	l["tensor.mttkrp_bytes_per_flop"] = bytes / flops
	l["mem.stream_gbps"] = streamGBps(streamBytes)
	if bw := l["mem.stream_gbps"]; bw > 0 {
		l["tensor.mttkrp_bw_frac"] = bytes / (callMS * 1e6) / bw
	}
	if opMS > 0 {
		l["tensor.mttkrp_share"] = float64(sweeps) * nModes * callMS / opMS
	}

	// One mode update's normal equations: the other modes' Grams, their
	// Hadamard product, and the right solve against the MTTKRP result.
	grams := make([]*mat.Matrix, len(blockDims))
	for m := range grams {
		grams[m] = mat.New(rank, rank)
	}
	var sc mat.SPDScratch
	solved := mat.New(blockDims[0], rank)
	l["mat.gram_solve_ms"] = timeMedianMS(func() {
		for m := 1; m < len(blockDims); m++ {
			mat.GramInto(grams[m], factors[m])
		}
		s := mat.HadamardAll(rank, rank, grams[1:]...)
		mat.RightSolveSPDInto(solved, dsts[0], s, &sc)
	})

	// GEMM on the factor shape: (rows×rank)·(rank×rank).
	sq := mat.Random(rank, rank, rng)
	prod := mat.New(blockDims[0], rank)
	mulMS := timeMedianMS(func() {
		for i := 0; i < 100; i++ {
			mat.MulInto(prod, factors[0], sq)
		}
	}) / 100
	l["mat.mul_gflops"] = 2 * float64(blockDims[0]) * float64(rank) * float64(rank) / (mulMS * 1e6)
}

// replayEncode times the store's unit codec alone, into memory, on a
// unit of the workload's shape: what a Put costs before the file system
// is involved.
func replayEncode(l layerReport, rowsPerPart, rank, blocksPerSlab int) {
	rng := rand.New(rand.NewSource(1))
	u := &blockstore.Unit{A: mat.Random(rowsPerPart, rank, rng), U: map[int]*mat.Matrix{}}
	for b := 0; b < blocksPerSlab; b++ {
		u.U[b] = mat.Random(rowsPerPart, rank, rng)
	}
	var buf bytes.Buffer
	l["blockstore.put_encode_us_p50"] = 1e3 * timeMedianMS(func() {
		buf.Reset()
		blockstore.EncodeUnit(&buf, u)
	})
}
