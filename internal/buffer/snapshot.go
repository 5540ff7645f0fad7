package buffer

import (
	"fmt"

	"twopcp/internal/schedule"
)

// SnapshotEntry records one resident unit for a checkpoint. The JSON tags
// are the on-disk checkpoint schema (runstate embeds these verbatim).
type SnapshotEntry struct {
	// ID is the unit's dense id (schedule.UnitID ordering).
	ID int `json:"id"`
	// Dirty marks units whose eviction must write back.
	Dirty bool `json:"dirty,omitempty"`
}

// State is the manager's replacement-relevant state, as Snapshot takes it
// and Restore installs it. The JSON tags are the on-disk checkpoint schema
// (runstate.BufferState is this type).
type State struct {
	// Resident lists the resident units in ascending last-use order.
	Resident []SnapshotEntry `json:"resident"`
	// Cursor is the Forward policy's position in the cyclic access string.
	Cursor int `json:"cursor"`
	// Stats are the cumulative statistics.
	Stats Stats `json:"stats"`
}

// Snapshot captures the manager's State for a checkpoint: the resident
// units in ascending last-use order (with their dirty flags), the Forward
// policy's schedule cursor and the cumulative statistics. A manager
// restored from this snapshot makes bit-identical hit/miss/eviction
// decisions from that point on — last-use comparisons are ordinal, so
// preserving the recency *order* preserves every LRU/MRU choice, and the
// cursor preserves every Forward-policy distance.
//
// Snapshot must be taken at a quiesce point: no unit may be pinned (the
// engine calls it after a step's Releases). In-flight prefetches are
// deliberately excluded — a prefetch never changes hit/miss classification,
// so dropping it costs at most a re-read after resume.
func (m *Manager) Snapshot() (State, error) {
	order := make([]int, 0, len(m.resident))
	for id, e := range m.resident {
		if e.pins > 0 {
			return State{}, fmt.Errorf("buffer: Snapshot with unit %d pinned", id)
		}
		order = append(order, id)
	}
	// Ascending last-use order (clock values are unique).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && m.resident[order[j]].lastUsed < m.resident[order[j-1]].lastUsed; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	entries := make([]SnapshotEntry, len(order))
	for i, id := range order {
		entries[i] = SnapshotEntry{ID: id, Dirty: m.resident[id].dirty}
	}
	return State{Resident: entries, Cursor: m.cursor, Stats: m.stats}, nil
}

// Restore repopulates a freshly built manager from a Snapshot's State:
// each listed unit is fetched from the store and installed with a
// synthetic last-use clock that reproduces the snapshot's recency order,
// the cursor and the statistics are installed verbatim, and none of the
// restoration reads count as fetches (the snapshot's Stats already account
// for the run so far — callers that also track store traffic should reset
// the store's counters after Restore returns).
func (m *Manager) Restore(st State) error {
	if len(m.resident) != 0 || m.clock != 0 {
		return fmt.Errorf("buffer: Restore on a used manager")
	}
	if len(m.cycle) > 0 && (st.Cursor < 0 || st.Cursor >= len(m.cycle)) {
		return fmt.Errorf("buffer: Restore cursor %d outside cycle of %d", st.Cursor, len(m.cycle))
	}
	numUnits := schedule.NumUnits(m.pattern)
	for i, se := range st.Resident {
		if se.ID < 0 || se.ID >= numUnits {
			return fmt.Errorf("buffer: Restore unit id %d outside [0,%d)", se.ID, numUnits)
		}
		mode, part := schedule.UnitFromID(m.pattern, se.ID)
		u, err := m.store.Get(mode, part)
		if err != nil {
			return fmt.Errorf("buffer: Restore unit ⟨%d,%d⟩: %w", mode, part, err)
		}
		m.resident[se.ID] = &entry{unit: u, bytes: u.Bytes(), lastUsed: int64(i + 1), dirty: se.Dirty}
		m.used += u.Bytes()
	}
	m.clock = int64(len(st.Resident))
	if len(m.cycle) > 0 {
		m.cursor = st.Cursor
	}
	m.stats = st.Stats
	return nil
}
