package twopcp

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"twopcp/internal/blockstore"
)

// TestInvalidOptionsFailBeforeAnyWork: every option the pipeline rejects
// is rejected up front — an error (never a panic), before Phase 1 has
// decomposed a block and before the checkpoint or store directory exists —
// through all three front-ends. The first four settings used to panic,
// fail only after Phase 1, or run with an undefined eviction rule.
func TestInvalidOptionsFailBeforeAnyWork(t *testing.T) {
	x := RandomDense(rand.New(rand.NewSource(3)), 8, 8, 8)
	tiled := filepath.Join(t.TempDir(), "x.tptl")
	if err := SaveTiled(tiled, x, nil); err != nil {
		t.Fatal(err)
	}
	frontEnds := map[string]func(Options) (*Result, error){
		"dense":  func(o Options) (*Result, error) { return Decompose(x, o) },
		"sparse": func(o Options) (*Result, error) { return DecomposeSparse(FromDense(x), o) },
		"tiled":  func(o Options) (*Result, error) { return DecomposeTiledFile(tiled, o) },
	}
	for name, mutate := range map[string]func(*Options){
		"unknown schedule":              func(o *Options) { o.Schedule = 99 },
		"unknown replacement":           func(o *Options) { o.Replacement = 99 },
		"negative io workers":           func(o *Options) { o.IOWorkers = -1 },
		"zero buffer capacity":          func(o *Options) { o.BufferFraction = 1e-12 },
		"rank 0":                        func(o *Options) { o.Rank = 0 },
		"partition count 0":             func(o *Options) { o.Partitions = []int{0} },
		"two partition counts, 3 modes": func(o *Options) { o.Partitions = []int{2, 2} },
		"ridge without lambda":          func(o *Options) { o.Constraint = ConstraintRidge },
		"phase0 rank, no accelerator":   func(o *Options) { o.Phase0Rank = 4 },
		"oversample, no accelerator":    func(o *Options) { o.SketchOversample = 2 },
		"resume without checkpoint":     func(o *Options) { o.Resume, o.Checkpoint = true, "" },
	} {
		for kind, decompose := range frontEnds {
			t.Run(name+"/"+kind, func(t *testing.T) {
				dir := t.TempDir()
				var blocks atomic.Int64
				opts := Options{
					Rank: 2, Partitions: []int{2}, MaxIters: 2,
					Checkpoint: filepath.Join(dir, "ckpt"), StoreDir: filepath.Join(dir, "units"),
					Observer: &Observer{OnEvent: func(e Event) {
						if e.Name == "phase1.block" {
							blocks.Add(1)
						}
					}},
				}
				mutate(&opts)
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				if _, err := decompose(opts); err == nil {
					t.Fatal("accepted")
				}
				if n := blocks.Load(); n != 0 {
					t.Errorf("%d blocks were decomposed before the options were rejected", n)
				}
				if left, _ := os.ReadDir(dir); len(left) != 0 {
					t.Errorf("%s was created before the options were rejected", left[0].Name())
				}
			})
		}
	}
}

// TestStoreStackLayers: the Phase-2 store stack holds exactly the layers
// that are switched on, outermost first: instrumentation (an observer),
// resilience (a retry policy), fault injection (chaos), then the base.
func TestStoreStackLayers(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		for _, retry := range []bool{false, true} {
			for _, observed := range []bool{false, true} {
				var opts Options
				want := []string{"*blockstore.MemStore"}
				if chaos {
					opts.Chaos.ReadRate = 0.1
					want = append([]string{"*blockstore.FaultyStore"}, want...)
				}
				if retry {
					opts.MaxRetries = 1
					want = append([]string{"*blockstore.ResilientStore"}, want...)
				}
				if observed {
					opts.Observer = &Observer{}
					want = append([]string{"*blockstore.InstrumentedStore"}, want...)
				}
				store, err := storeStack(opts)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for store != nil {
					got = append(got, reflect.TypeOf(store).String())
					switch s := store.(type) {
					case *blockstore.InstrumentedStore:
						store = s.Store
					case *blockstore.ResilientStore:
						store = s.Store
					case *blockstore.FaultyStore:
						store = s.Store
					default:
						store = nil
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("chaos=%v retry=%v observer=%v: stack %v, want %v", chaos, retry, observed, got, want)
				}
			}
		}
	}
}
