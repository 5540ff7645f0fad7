package refine

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"twopcp/internal/blockstore"
	"twopcp/internal/buffer"
	"twopcp/internal/grid"
	"twopcp/internal/obs"
	"twopcp/internal/schedule"
)

// TestStoreTrafficIsBytesMoved pins what StoreStats counts, on a grid of
// unequal partition sizes over both backends: a write-back moves the
// evicted unit's A partition and nothing else, a fetch moves the whole
// unit, and prefetching changes neither — it may only add whole-unit
// reads (prefetches for steps that never ran, or wasted by an eviction).
func TestStoreTrafficIsBytesMoved(t *testing.T) {
	const rank = 2
	p := grid.MustNew([]int{7, 6, 5}, []int{3, 2, 2})
	p1 := runPhase1(t, lowRank(rand.New(rand.NewSource(3)), rank, 7, 6, 5), p, rank)
	aBytes := func(mode, part int) int64 {
		_, rows := p.ModeRange(mode, part)
		return int64(rows) * rank * 8
	}

	type traffic struct {
		stats              blockstore.Stats
		buf                buffer.Stats
		fetched, writtenBk int64 // bytes the buffer's own events account for
	}
	run := func(t *testing.T, store blockstore.Store, depth int) traffic {
		var mu sync.Mutex
		var tr traffic
		eng, err := New(Config{
			Phase1: p1, Store: store,
			Schedule: schedule.ZOrder, Policy: buffer.LRU,
			BufferFraction: 1.0 / 3, MaxVirtualIters: 8, Tol: 1e-12, Seed: 5,
			PrefetchDepth: depth,
			Obs: &obs.Observer{OnEvent: func(e obs.Event) {
				var ev struct {
					Ev         string
					Mode, Part int
					Bytes      int64
				}
				if err := json.Unmarshal([]byte(e.Canon()), &ev); err != nil {
					t.Error(err)
				}
				mu.Lock()
				defer mu.Unlock()
				switch ev.Ev {
				case "buffer.fetch":
					if want := schedule.UnitBytes(p, ev.Mode, ev.Part, rank); ev.Bytes != want {
						t.Errorf("fetched ⟨%d,%d⟩ holds %d bytes, a whole unit is %d", ev.Mode, ev.Part, ev.Bytes, want)
					}
					tr.fetched += ev.Bytes
				case "buffer.writeback":
					tr.writtenBk += aBytes(ev.Mode, ev.Part)
				}
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		tr.stats, tr.buf = res.StoreStats, res.BufferStats
		if tr.buf.WriteBacks == 0 || tr.buf.Evictions == 0 {
			t.Fatalf("fixture too loose to exercise write-back: %+v", tr.buf)
		}
		if tr.stats.Writes != tr.buf.WriteBacks || tr.stats.BytesWritten != tr.writtenBk {
			t.Errorf("depth %d: %d writes of %d bytes, want the %d write-backs' A partitions: %d bytes",
				depth, tr.stats.Writes, tr.stats.BytesWritten, tr.buf.WriteBacks, tr.writtenBk)
		}
		return tr
	}

	stores := map[string]func(t *testing.T) blockstore.Store{
		"mem": func(*testing.T) blockstore.Store { return blockstore.NewMemStore() },
		"file": func(t *testing.T) blockstore.Store {
			s, err := blockstore.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	smallest, largest := schedule.UnitBytes(p, 0, 0, rank), schedule.UnitBytes(p, 0, 0, rank)
	for mode := range p.K {
		for part := 0; part < p.K[mode]; part++ {
			smallest = min(smallest, schedule.UnitBytes(p, mode, part, rank))
			largest = max(largest, schedule.UnitBytes(p, mode, part, rank))
		}
	}
	var memPlain blockstore.Stats
	for _, name := range []string{"mem", "file"} {
		t.Run(name, func(t *testing.T) {
			plain, ahead := run(t, stores[name](t), 0), run(t, stores[name](t), 2)
			if plain.stats.Reads != plain.buf.Fetches || plain.stats.BytesRead != plain.fetched {
				t.Errorf("synchronous: %d reads of %d bytes, want the %d fetches' whole units: %d bytes",
					plain.stats.Reads, plain.stats.BytesRead, plain.buf.Fetches, plain.fetched)
			}
			if ahead.stats.Writes != plain.stats.Writes || ahead.stats.BytesWritten != plain.stats.BytesWritten {
				t.Errorf("prefetching changed the write traffic: %+v vs %+v", ahead.stats, plain.stats)
			}
			// The extra reads are whole units, whichever they were.
			extra := ahead.stats.Reads - plain.stats.Reads
			extraBytes := ahead.stats.BytesRead - plain.stats.BytesRead
			if extra < 0 || extraBytes < extra*smallest || extraBytes > extra*largest {
				t.Errorf("prefetching added %d reads of %d bytes; units are %d..%d bytes", extra, extraBytes, smallest, largest)
			}
			if name == "mem" {
				memPlain = plain.stats
			} else if plain.stats != memPlain {
				t.Errorf("file store counted %+v, mem store %+v", plain.stats, memPlain)
			}
		})
	}
}
