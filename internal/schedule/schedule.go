// Package schedule implements 2PCP's update schedules (paper §V–VI): the
// conventional mode-centric order of Algorithm 1 and the block-centric
// tensor-filling cycles of Algorithm 2 under fiber-, Z- and Hilbert-order
// block traversals, together with the data-unit access strings that the
// buffer manager consumes and the virtual-iteration arithmetic used for
// termination checks (Definition 3).
package schedule

import (
	"fmt"
	"sync"

	"twopcp/internal/grid"
	"twopcp/internal/sfc"
)

// Kind selects one of the paper's update schedules.
type Kind int

const (
	// ModeCentric is Algorithm 1: for each mode i, for each partition ki,
	// update A(i)_(ki) once. One data unit per step.
	ModeCentric Kind = iota
	// FiberOrder is Algorithm 2 with nested-loop block traversal (§VI-B).
	FiberOrder
	// ZOrder is Algorithm 2 with Morton-order block traversal (§VI-C.1).
	ZOrder
	// HilbertOrder is Algorithm 2 with Hilbert-order traversal (§VI-C.2).
	HilbertOrder
)

// Kinds lists all schedule kinds in the paper's presentation order.
var Kinds = []Kind{ModeCentric, FiberOrder, ZOrder, HilbertOrder}

// String returns the paper's abbreviation for the schedule kind.
func (k Kind) String() string {
	switch k {
	case ModeCentric:
		return "MC"
	case FiberOrder:
		return "FO"
	case ZOrder:
		return "ZO"
	case HilbertOrder:
		return "HO"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps the paper's abbreviations (case-sensitive) to kinds.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "MC", "mode-centric":
		return ModeCentric, nil
	case "FO", "fiber":
		return FiberOrder, nil
	case "ZO", "zorder", "z-order":
		return ZOrder, nil
	case "HO", "hilbert":
		return HilbertOrder, nil
	}
	return 0, fmt.Errorf("schedule: unknown kind %q", s)
}

// Check reports whether k is one of the schedule kinds New can build —
// the pre-flight form of New's panic, for values that arrive from outside
// the program.
func (k Kind) Check() error {
	if k < ModeCentric || k > HilbertOrder {
		return fmt.Errorf("schedule: unknown kind %d", int(k))
	}
	return nil
}

// Access identifies one mode-partition data unit
// ⟨i, ki⟩ = {A(i)_(ki); U(i)_[*,..,ki,..,*]} (paper Definition 4).
type Access struct {
	Mode int
	Part int
}

// Step is one scheduling step of a cycle. A mode-centric step performs a
// single sub-factor update and touches one unit; a block-centric step
// processes one block position, performing N sub-factor updates and
// touching the N units of that position, which are pinned together.
type Step struct {
	Block    []int    // block position vector; nil for mode-centric steps
	Accesses []Access // units touched by this step
}

// Updates returns the number of sub-factor updates the step performs,
// which is the unit of virtual-iteration accounting.
func (s *Step) Updates() int { return len(s.Accesses) }

// Schedule is one tensor-filling cycle C (Definition 2); Phase 2 repeats
// it until the stopping condition fires.
type Schedule struct {
	Kind    Kind
	Pattern *grid.Pattern
	Steps   []Step

	// flat caches the flattened access string for Upcoming; built once on
	// first use (the schedule is immutable after New).
	flatOnce sync.Once
	flat     []Access
}

// New builds the cycle for the given kind over the given pattern. It
// panics on a kind that fails Check.
func New(kind Kind, p *grid.Pattern) *Schedule {
	s := &Schedule{Kind: kind, Pattern: p}
	switch kind {
	case ModeCentric:
		for i := 0; i < p.NModes(); i++ {
			for ki := 0; ki < p.K[i]; ki++ {
				s.Steps = append(s.Steps, Step{Accesses: []Access{{Mode: i, Part: ki}}})
			}
		}
	case FiberOrder, ZOrder, HilbertOrder:
		var order [][]int
		switch kind {
		case FiberOrder:
			order = sfc.FiberOrder(p.K)
		case ZOrder:
			order = sfc.ZOrder(p.K)
		default:
			order = sfc.HilbertOrder(p.K)
		}
		for _, block := range order {
			acc := make([]Access, len(block))
			for i, ki := range block {
				acc[i] = Access{Mode: i, Part: ki}
			}
			s.Steps = append(s.Steps, Step{Block: block, Accesses: acc})
		}
	default:
		panic(fmt.Sprintf("schedule: unknown kind %d", int(kind)))
	}
	return s
}

// UpdatesPerCycle returns the number of sub-factor updates in one cycle:
// Σ K_i for mode-centric, N·ΠK_i for block-centric.
func (s *Schedule) UpdatesPerCycle() int {
	total := 0
	for i := range s.Steps {
		total += s.Steps[i].Updates()
	}
	return total
}

// VirtualIterationLength returns Σ_i K_i, the number of sub-factor updates
// per virtual iteration (Definition 3).
func (s *Schedule) VirtualIterationLength() int { return s.Pattern.SumK() }

// VirtualIterationsPerCycle returns how many virtual iterations one cycle
// spans (may be fractional for odd patterns; callers that need exact
// boundaries should count updates instead).
func (s *Schedule) VirtualIterationsPerCycle() float64 {
	return float64(s.UpdatesPerCycle()) / float64(s.VirtualIterationLength())
}

// AccessString flattens the cycle into the per-unit access sequence (in
// step order, accesses within a step in mode order). The forward-looking
// buffer policy precomputes next-use distances over this string.
func (s *Schedule) AccessString() []Access {
	out := make([]Access, 0, s.UpdatesPerCycle())
	for i := range s.Steps {
		out = append(out, s.Steps[i].Accesses...)
	}
	return out
}

// Upcoming returns the next n accesses of the cyclic access string
// starting at position cursor (the access at cursor itself is the first
// element), wrapping around the cycle. n is clamped to one full cycle —
// looking further ahead than the cycle length only revisits the same
// units. cursor may be any non-negative value; it is reduced modulo the
// cycle length, matching the buffer manager's cursor arithmetic.
//
// This is the lookahead API of Phase-2 prefetch: the refinement engine
// asks for the accesses of the next schedule steps and hands them to the
// buffer manager as prefetch hints while the current step's updates run.
// It is safe for concurrent use.
func (s *Schedule) Upcoming(cursor, n int) []Access {
	s.flatOnce.Do(func() { s.flat = s.AccessString() })
	total := len(s.flat)
	if total == 0 || n <= 0 {
		return nil
	}
	if n > total {
		n = total
	}
	if cursor < 0 {
		panic(fmt.Sprintf("schedule: Upcoming cursor %d must be non-negative", cursor))
	}
	cursor %= total
	out := make([]Access, n)
	for i := 0; i < n; i++ {
		out[i] = s.flat[(cursor+i)%total]
	}
	return out
}

// NumUnits returns the number of distinct mode-partition units, Σ K_i.
func NumUnits(p *grid.Pattern) int { return p.SumK() }

// UnitID maps a (mode, part) pair to a dense id in [0, NumUnits):
// units are numbered mode-major.
func UnitID(p *grid.Pattern, mode, part int) int {
	if mode < 0 || mode >= p.NModes() || part < 0 || part >= p.K[mode] {
		panic(fmt.Sprintf("schedule: UnitID(%d, %d) of pattern %v", mode, part, p.K))
	}
	id := part
	for i := 0; i < mode; i++ {
		id += p.K[i]
	}
	return id
}

// UnitFromID inverts UnitID.
func UnitFromID(p *grid.Pattern, id int) (mode, part int) {
	if id < 0 || id >= p.SumK() {
		panic(fmt.Sprintf("schedule: UnitFromID(%d) of pattern %v", id, p.K))
	}
	for i, k := range p.K {
		if id < k {
			return i, id
		}
		id -= k
	}
	panic("unreachable")
}

// UnitBytes returns the size in bytes of unit ⟨mode, part⟩ under the
// paper's accounting (§VI, 8-byte doubles):
//
//	(I_i/K_i·F + Π_{j≠i}K_j · I_i/K_i·F) · 8
//
// using the actual partition row count for uneven splits.
func UnitBytes(p *grid.Pattern, mode, part, rank int) int64 {
	_, rows := p.ModeRange(mode, part)
	blocks := int64(p.SlabSize(mode))
	per := int64(rows) * int64(rank) * 8
	return per + blocks*per
}

// TotalBytes returns the total space requirement Σ units (§IV-A), the
// denominator of the paper's "buffer size as a fraction of the total
// space requirement".
func TotalBytes(p *grid.Pattern, rank int) int64 {
	var total int64
	for i := 0; i < p.NModes(); i++ {
		for ki := 0; ki < p.K[i]; ki++ {
			total += UnitBytes(p, i, ki, rank)
		}
	}
	return total
}
