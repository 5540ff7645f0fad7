package refine

import (
	"fmt"

	"twopcp/internal/runstate"
)

// Checkpointer persists and restores Phase-2 progress. runstate.Run is the
// production implementation; the engine only requires this method pair so
// tests can substitute failure-injecting fakes.
//
// The engine checkpoints at schedule-step boundaries (all units released,
// no update in flight), every Config.CheckpointEverySteps steps. A
// checkpoint is the complete mutable state of the refinement — the
// engine's runstate.Progress as it stands (schedule position, counters,
// FitTrace, convergence state), the buffer.State, the
// cumulative store traffic and the current A factor partitions — so an
// engine rebuilt from it replays the remaining steps bit-for-bit: the P/Q
// components are pure functions of the checkpointed A (and the Phase-1
// U), and the buffer state pins every subsequent hit/miss/eviction
// decision. Telemetry counters are not part of it: they belong to the
// process, and a resumed run's figures across the interruption are its
// Result.
type Checkpointer interface {
	// LoadPhase2 returns the latest checkpoint, or ok=false when none
	// exists.
	LoadPhase2() (*runstate.Phase2State, bool, error)
	// SavePhase2 records st. runstate.Run group-commits it: st survives
	// the process once SavePhase2 returns, and reaches the disk within a
	// second or at the next stage boundary or Close; a power loss before
	// that loads an older checkpoint, which replays to the same bits.
	SavePhase2(st *runstate.Phase2State) error
}

// validateState checks a loaded checkpoint against this engine's pattern
// and schedule before any of it is trusted.
func (e *Engine) validateState(st *runstate.Phase2State) error {
	p := e.pattern
	rank := e.cfg.Phase1.Rank
	if len(st.A) != p.NModes() {
		return fmt.Errorf("refine: checkpoint has %d factor modes, pattern %d", len(st.A), p.NModes())
	}
	for mode, row := range st.A {
		if len(row) != p.K[mode] {
			return fmt.Errorf("refine: checkpoint mode %d has %d partitions, pattern %d", mode, len(row), p.K[mode])
		}
		for part, a := range row {
			_, rows := p.ModeRange(mode, part)
			if a == nil {
				return fmt.Errorf("refine: checkpoint A(%d)_(%d) is missing", mode, part)
			}
			if a.Rows != rows || a.Cols != rank {
				return fmt.Errorf("refine: checkpoint A(%d)_(%d) is %d×%d, want %d×%d",
					mode, part, a.Rows, a.Cols, rows, rank)
			}
		}
	}
	if st.NextStep < 0 || st.NextStep >= len(e.sched.Steps) {
		return fmt.Errorf("refine: checkpoint step %d outside schedule of %d steps", st.NextStep, len(e.sched.Steps))
	}
	if st.Pos < 0 || st.Pos >= e.sched.UpdatesPerCycle() {
		return fmt.Errorf("refine: checkpoint position %d outside cycle of %d accesses", st.Pos, e.sched.UpdatesPerCycle())
	}
	if st.Updates < 0 || st.VirtualIters < 0 {
		return fmt.Errorf("refine: checkpoint has negative progress counters")
	}
	if len(st.FitTrace) != st.VirtualIters {
		return fmt.Errorf("refine: checkpoint trace has %d entries for %d virtual iterations",
			len(st.FitTrace), st.VirtualIters)
	}
	return nil
}

// saveCheckpoint snapshots the engine at a step boundary — e.prog, the
// buffer state, the cumulative store traffic and the current A — and hands
// it to the Checkpointer.
func (e *Engine) saveCheckpoint() error {
	bs, err := e.mgr.Snapshot()
	if err != nil {
		return err
	}
	st := &runstate.Phase2State{
		Progress:   e.prog,
		Buffer:     bs,
		StoreStats: e.cfg.Store.Stats(),
		A:          e.curA,
	}
	st.StoreStats.Add(e.statsOffset)
	// The engine keeps appending to its trace; the checkpoint gets a copy.
	st.FitTrace = append([]float64(nil), e.prog.FitTrace...)
	if err := e.cfg.Checkpoint.SavePhase2(st); err != nil {
		return fmt.Errorf("refine: checkpoint: %w", err)
	}
	return nil
}

// restoreFromState installs a validated checkpoint into a freshly built
// engine: the buffer snapshot is reloaded from the store (the units were
// just re-seeded from the checkpointed A by seedUnits), the store's
// counters are zeroed so restoration traffic never double-counts, the
// checkpoint's cumulative statistics become the engine's offsets and its
// Progress becomes e.prog.
func (e *Engine) restoreFromState(st *runstate.Phase2State) error {
	if err := e.mgr.Restore(st.Buffer); err != nil {
		return err
	}
	e.cfg.Store.ResetStats()
	e.statsOffset = st.StoreStats
	e.prog = st.Progress
	e.prog.FitTrace = append([]float64(nil), st.FitTrace...)
	return nil
}
