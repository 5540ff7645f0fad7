package twopcp

import (
	"errors"

	"twopcp/internal/cpals"
	"twopcp/internal/phase1"
)

// Fault-tolerance surface, re-exported from the internal packages. See the
// "Fault tolerance" section of the package documentation for the contract:
// retries never change what the run computes, quarantine is typed and
// resumable, and a graceful drain leaves a valid checkpoint behind.
type (
	// QuarantineError reports Phase-1 blocks that exhausted the retry
	// budget on a permanent fault. The run's other blocks completed and
	// were checkpointed (when checkpointing), so fixing the fault and
	// resuming recomputes only the quarantined blocks. Detect it with
	// errors.As; the listed block ids are sorted ascending.
	QuarantineError = phase1.QuarantineError
)

// ErrInterrupted is returned (wrapped) when a run stops early because
// Options.Stop was closed: in-flight work was finished, and — when
// checkpointing — a valid checkpoint was written first, so a Resume
// continues bit-exactly where the drain left off. Detect it with
// errors.Is.
var ErrInterrupted = errors.New("twopcp: run interrupted")

// ErrNonFinite is returned (wrapped) when the input holds a NaN or ±Inf
// cell — or finite cells whose squared norm overflows float64 — instead of
// a run that ends in NaN factors. Without an accelerator the Phase-1 block
// that holds the cell is quarantined (a *QuarantineError names it); with
// AccelTucker the Phase-0 core solve fails before any Phase-1 block runs.
// Detect it with errors.Is.
var ErrNonFinite = cpals.ErrNonFinite

// Chaos injects seeded faults into a run for resilience testing (the
// chaos harness in scripts/chaos.sh drives it through the CLI's -fault-*
// flags). All injection is deterministic under Seed, so a faulty run that
// heals through retries produces bit-identical factors and FitTrace to a
// fault-free run. The zero value injects nothing.
type Chaos struct {
	// ReadRate is the per-read probability of an injected transient fault,
	// one rate for both Phase-1 block reads and Phase-2 store reads.
	ReadRate float64
	// WriteRate is the per-write probability of an injected transient
	// fault on Phase-2 store writes.
	WriteRate float64
	// PoisonBlocks lists Phase-1 linear block ids that fail permanently
	// on every read (they exhaust any retry budget and land in
	// quarantine).
	PoisonBlocks []int
	// Seed seeds the injection RNGs (independent of Options.Seed so the
	// fault pattern can vary while the run's numerics stay fixed).
	Seed int64
}

// storeFaults reports whether Phase-2 store faults are configured.
func (c Chaos) storeFaults() bool { return c.ReadRate > 0 || c.WriteRate > 0 }
