package main

import (
	"fmt"
	"math"
	"sync/atomic"

	"twopcp"
	"twopcp/internal/blockstore"
	"twopcp/internal/cpals"
	"twopcp/internal/grid"
	"twopcp/internal/mat"
	"twopcp/internal/par"
	"twopcp/internal/phase1"
	"twopcp/internal/refine"
	"twopcp/internal/runstate"
	"twopcp/internal/tensor"
	"twopcp/internal/tfile"
)

// The traced run executes an op as the explicit chain of the layers'
// public calls that twopcp.DecomposeFile makes for a tiled input —
//
//	tfile.Open → phase1.NewTiledSource → phase1.Run →
//	blockstore.NewFileStore → refine.New → Engine.Run → streamed fit
//
// — with the three interfaces the engine accepts (phase1.Source,
// blockstore.Store and the two Checkpointers) wrapped by delegating
// recorders. Every staged op's factors must hash equal to
// DecomposeFile's for the same options; that equality is what says the
// trace measures the same program.

// Span names: layer, then the call.
const (
	spanOp          = "twopcp.op"
	spanOpen        = "tfile.open"
	spanBlockRead   = "tfile.block_read"
	spanTileRead    = "tfile.tile_read"
	spanPhase1      = "phase1.run"
	spanRefineSetup = "refine.setup"
	spanRefineRun   = "refine.run"
	spanFitPass     = "twopcp.fit_pass"
	spanGet         = "blockstore.get"
	spanPut         = "blockstore.put"
	spanCkptBlock   = "runstate.save_block"
	spanCkptPhase2  = "runstate.save_phase2"
	spanCkptResult  = "runstate.save_result"
)

// recorder ties the wrappers to the tracer: the op being run and the
// stage span that calls into them, which changes as the chain advances
// and is read from the engine's I/O goroutines.
type recorder struct {
	tr     *tracer
	op     int
	parent atomic.Int64
}

func (r *recorder) begin(name string) int { return r.tr.begin(name, int(r.parent.Load()), r.op) }

// stage runs fn as a child span of the op's root and makes it the parent
// of every wrapper span recorded meanwhile.
func (r *recorder) stage(name string, root int, fn func() error) error {
	id := r.tr.begin(name, root, r.op)
	r.parent.Store(int64(id))
	err := fn()
	r.tr.end(id, 0)
	r.parent.Store(int64(root))
	return err
}

type tracedSource struct {
	inner phase1.Source
	rec   *recorder
}

func (s *tracedSource) Pattern() *grid.Pattern { return s.inner.Pattern() }

func (s *tracedSource) Block(vec []int) (any, error) {
	id := s.rec.begin(spanBlockRead)
	b, err := s.inner.Block(vec)
	var n int64
	if d, ok := b.(*tensor.Dense); ok {
		n = int64(len(d.Data)) * 8
	}
	s.rec.tr.end(id, n)
	return b, err
}

type tracedStore struct {
	inner blockstore.Store
	rec   *recorder
}

func (s *tracedStore) Put(u *blockstore.Unit) error {
	id := s.rec.begin(spanPut)
	err := s.inner.Put(u)
	s.rec.tr.end(id, u.Bytes())
	return err
}

func (s *tracedStore) Get(mode, part int) (*blockstore.Unit, error) {
	id := s.rec.begin(spanGet)
	u, err := s.inner.Get(mode, part)
	var n int64
	if u != nil {
		n = u.Bytes()
	}
	s.rec.tr.end(id, n)
	return u, err
}

func (s *tracedStore) Stats() blockstore.Stats { return s.inner.Stats() }
func (s *tracedStore) ResetStats()             { s.inner.ResetStats() }
func (s *tracedStore) Close() error            { return s.inner.Close() }

func matrixBytes(ms []*mat.Matrix) int64 {
	var n int64
	for _, m := range ms {
		if m != nil {
			n += int64(len(m.Data)) * 8
		}
	}
	return n
}

// tracedCheckpoint delegates both phases' Checkpointer interfaces to the
// run's manifest.
type tracedCheckpoint struct {
	inner *runstate.Run
	rec   *recorder
}

func (c *tracedCheckpoint) LoadBlock(id int) ([]*mat.Matrix, float64, bool, error) {
	return c.inner.LoadBlock(id)
}

func (c *tracedCheckpoint) SaveBlock(id int, factors []*mat.Matrix, fit float64) error {
	sp := c.rec.begin(spanCkptBlock)
	err := c.inner.SaveBlock(id, factors, fit)
	c.rec.tr.end(sp, matrixBytes(factors))
	return err
}

func (c *tracedCheckpoint) LoadPhase2() (*runstate.Phase2State, bool, error) {
	return c.inner.LoadPhase2()
}

func (c *tracedCheckpoint) SavePhase2(st *runstate.Phase2State) error {
	sp := c.rec.begin(spanCkptPhase2)
	err := c.inner.SavePhase2(st)
	var n int64
	for _, parts := range st.A {
		n += matrixBytes(parts)
	}
	c.rec.tr.end(sp, n)
	return err
}

// stagedOutcome adds the counts taken at the stage boundaries to what an
// op produces.
type stagedOutcome struct {
	opOutcome
	root   int // the op's root span
	sweeps int
	buffer struct{ hits, fetches, evictions, writeBacks int64 }
}

// runStaged executes one op as the traced stage chain. The caller has
// filled opts' per-op directories; opID tags the op's spans.
func (s *decompSpec) runStaged(tr *tracer, opID int, input string, opts twopcp.Options) stagedOutcome {
	var out stagedOutcome
	out.err = s.staged(tr, opID, input, opts, &out)
	if out.err == nil {
		out.hash = factorHash(out.res.Model)
	}
	return out
}

func (s *decompSpec) staged(tr *tracer, opID int, input string, opts twopcp.Options, out *stagedOutcome) error {
	if opts.KernelWorkers > 0 {
		defer par.PopWorkers(par.PushWorkers(opts.KernelWorkers))
	}
	rec := &recorder{tr: tr, op: opID}
	root := tr.begin(spanOp, 0, opID)
	defer func() { tr.end(root, 0) }()
	out.root = root
	rec.parent.Store(int64(root))

	var rd *tfile.Reader
	if err := rec.stage(spanOpen, root, func() (err error) {
		rd, err = tfile.Open(input)
		return err
	}); err != nil {
		return err
	}
	defer rd.Close()

	parts := make([]int, len(rd.Dims()))
	for i := range parts {
		parts[i] = opts.Partitions[0]
	}
	p, err := grid.New(rd.Dims(), parts)
	if err != nil {
		return err
	}
	src, err := phase1.NewTiledSource(rd, p)
	if err != nil {
		return err
	}

	var ckpt *tracedCheckpoint
	var rs *runstate.Run
	if opts.Checkpoint != "" {
		rs, err = runstate.Open(opts.Checkpoint, runstate.Meta{
			InputKind: "tiled", Dims: p.Dims, Partitions: p.K, Rank: opts.Rank,
			Schedule: opts.Schedule.String(), Replacement: opts.Replacement.String(),
			BufferFraction: opts.BufferFraction, MaxIters: opts.MaxIters, Tol: finiteTol(opts.Tol),
			Phase1MaxIters: opts.Phase1MaxIters, Phase1Tol: opts.Phase1Tol, Seed: opts.Seed,
		}, p.NumBlocks(), false)
		if err != nil {
			return err
		}
		ckpt = &tracedCheckpoint{inner: rs, rec: rec}
	}

	p1opts := phase1.Options{
		Rank: opts.Rank, MaxIters: opts.Phase1MaxIters, Tol: opts.Phase1Tol,
		Seed: opts.Seed, Workers: opts.Workers, Solver: cpals.LeastSquares{},
	}
	if ckpt != nil {
		p1opts.Checkpoint = ckpt
	}
	var p1 *phase1.Result
	if err := rec.stage(spanPhase1, root, func() (err error) {
		p1, err = phase1.Run(&tracedSource{inner: src, rec: rec}, p1opts)
		return err
	}); err != nil {
		return err
	}
	out.sweeps = p1.TotalSweeps()
	if rs != nil {
		if err := rs.BeginPhase2(); err != nil {
			return err
		}
	}

	fs, err := blockstore.NewFileStore(opts.StoreDir)
	if err != nil {
		return err
	}
	cfg := refine.Config{
		Phase1: p1, Store: &tracedStore{inner: fs, rec: rec},
		Schedule: opts.Schedule, Policy: opts.Replacement,
		BufferFraction: opts.BufferFraction, MaxVirtualIters: opts.MaxIters, Tol: opts.Tol,
		Seed: opts.Seed, PrefetchDepth: opts.PrefetchDepth, IOWorkers: opts.IOWorkers,
		Solver: cpals.LeastSquares{},
	}
	if ckpt != nil {
		cfg.Checkpoint = ckpt
		cfg.CheckpointEverySteps = opts.CheckpointEverySteps
	}
	var eng *refine.Engine
	if err := rec.stage(spanRefineSetup, root, func() (err error) {
		eng, err = refine.New(cfg)
		return err
	}); err != nil {
		fs.Close()
		return err
	}
	var r *refine.Result
	if err := rec.stage(spanRefineRun, root, func() (err error) {
		if r, err = eng.Run(); err != nil {
			fs.Close()
			return err
		}
		return fs.Close()
	}); err != nil {
		return err
	}

	res := &twopcp.Result{
		Model: cpals.NewKTensor(r.Factors), VirtualIters: r.VirtualIters,
		Converged: r.Converged, FitTrace: r.FitTrace,
	}
	res.RunStats.Phase1Sweeps = out.sweeps
	res.RunStats.SwapsPerIter = r.SwapsPerVirtualIter
	res.RunStats.BytesRead = r.StoreStats.BytesRead
	res.RunStats.BytesWritten = r.StoreStats.BytesWritten
	out.buffer.hits, out.buffer.fetches = r.BufferStats.Hits, r.BufferStats.Fetches
	out.buffer.evictions, out.buffer.writeBacks = r.BufferStats.Evictions, r.BufferStats.WriteBacks
	out.res = res

	if err := rec.stage(spanFitPass, root, func() (err error) {
		res.Fit, err = streamedFit(rec, rd, res.Model)
		return err
	}); err != nil {
		return err
	}
	if rs != nil {
		sp := rec.begin(spanCkptResult)
		err := rs.SaveResult(&runstate.ResultState{
			Fit: res.Fit, VirtualIters: res.VirtualIters, Converged: res.Converged,
			FitTrace: res.FitTrace, Blocks: p.NumBlocks(), Phase1Sweeps: out.sweeps,
			Swaps: r.BufferStats.Fetches, SwapsPerIter: r.SwapsPerVirtualIter,
			BytesRead: r.StoreStats.BytesRead, BytesWritten: r.StoreStats.BytesWritten,
			Factors: res.Model.Factors,
		})
		tr.end(sp, matrixBytes(res.Model.Factors))
		if err != nil {
			return err
		}
	}
	return nil
}

// finiteTol folds an infinite tolerance to the finite extreme, as the
// library does before writing it to the manifest (JSON has no ±Inf).
func finiteTol(tol float64) float64 {
	switch {
	case math.IsInf(tol, -1):
		return -math.MaxFloat64
	case math.IsInf(tol, 1):
		return math.MaxFloat64
	}
	return tol
}

// streamedFit is the library's tile-by-tile fit pass, 1 − ‖X−X̂‖/‖X‖
// with one tile resident at a time, with every tile read recorded.
func streamedFit(rec *recorder, rd *tfile.Reader, model *twopcp.KTensor) (float64, error) {
	tiling := rd.Tiling()
	var normX2, inner float64
	for _, vec := range tiling.Positions() {
		sp := rec.begin(spanTileRead)
		tile, err := rd.ReadTile(vec)
		if err != nil {
			rec.tr.end(sp, 0)
			return 0, err
		}
		rec.tr.end(sp, int64(len(tile.Data))*8)
		from, size := tiling.Block(vec)
		sub := make([]*mat.Matrix, len(model.Factors))
		for m, f := range model.Factors {
			sub[m] = f.SliceRows(from[m], from[m]+size[m])
		}
		subModel := cpals.NewKTensor(sub)
		copy(subModel.Lambda, model.Lambda)
		n := tile.Norm()
		normX2 += n * n
		inner += subModel.InnerDense(tile)
	}
	normX := math.Sqrt(normX2)
	if normX == 0 {
		return 1, nil
	}
	normModel := model.Norm()
	res2 := normX2 + normModel*normModel - 2*inner
	if res2 < 0 {
		res2 = 0
	}
	return 1 - math.Sqrt(res2)/normX, nil
}

// checkStaged is the staged op's oracle: the DecomposeFile oracle plus an
// exact match of the fit, which the replicated fit pass must reproduce.
func (s *decompSpec) checkStaged(o stagedOutcome, refHash string, refFit float64) error {
	if err := s.check(o.opOutcome, refHash); err != nil {
		return err
	}
	if o.res.Fit != refFit {
		return fmt.Errorf("staged fit %.17g differs from DecomposeFile's %.17g", o.res.Fit, refFit)
	}
	return nil
}
