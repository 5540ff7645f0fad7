package phase1

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twopcp/internal/grid"
)

// idSource serves each block as its linear id. A non-nil hold delays
// block 0's read until the last block has been read.
type idSource struct {
	p    *grid.Pattern
	hold chan struct{}
}

func (s *idSource) Pattern() *grid.Pattern { return s.p }

func (s *idSource) Block(vec []int) (any, error) {
	id := s.p.Linear(vec)
	if s.hold != nil {
		switch id {
		case 0:
			<-s.hold
		case s.p.NumBlocks() - 1:
			close(s.hold)
		}
	}
	return id, nil
}

// within fails the test if fn does not return within the deadlock timeout.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// readID is a per-block function that reads the block and returns it.
func readID(_ struct{}, _ int, _ []int, read func() (any, error)) (int, error) {
	b, err := read()
	if err != nil {
		return 0, err
	}
	return b.(int), nil
}

func noState() struct{} { return struct{}{} }

// TestStreamMergesInIDOrder: block 0 is read last of all, yet the merges
// arrive in id order 0…n−1, each with its own block's partial, at every
// worker count.
func TestStreamMergesInIDOrder(t *testing.T) {
	p := grid.MustNew([]int{8, 8, 8}, []int{2, 2, 4})
	for _, workers := range []int{1, 4} {
		src := &idSource{p: p}
		if workers > 1 {
			src.hold = make(chan struct{})
		}
		var got []int
		within(t, fmt.Sprintf("workers %d", workers), func() {
			err := Stream(src, workers, nil, nil, noState, readID, func(id int, vec []int, part int) {
				if part != id || p.Linear(vec) != id {
					t.Errorf("merge of block %d got partial %d, position %v", id, part, vec)
				}
				got = append(got, id)
			})
			if err != nil {
				t.Error(err)
			}
		})
		for i, id := range got {
			if id != i {
				t.Fatalf("workers %d: merge order %v, want 0…%d", workers, got, p.NumBlocks()-1)
			}
		}
		if len(got) != p.NumBlocks() {
			t.Fatalf("workers %d: %d merges, want %d", workers, len(got), p.NumBlocks())
		}
	}
}

// TestStreamReturnsFirstError: with blocks 2 and 5 failing and block 2
// failing last, the stream returns block 2's error, merges only blocks 0
// and 1, and leaves no goroutine behind.
func TestStreamReturnsFirstError(t *testing.T) {
	p := grid.MustNew([]int{8, 8, 8}, []int{2, 2, 4})
	before := runtime.NumGoroutine()
	late := make(chan struct{})
	var merged []int
	var err error
	within(t, "Stream after a block error", func() {
		err = Stream(&idSource{p: p}, 4, nil, nil, noState,
			func(_ struct{}, id int, _ []int, _ func() (any, error)) (int, error) {
				switch id {
				case 2:
					<-late
					return 0, fmt.Errorf("block 2: %w", errFail)
				case 5:
					close(late)
					return 0, errors.New("block 5")
				}
				return id, nil
			},
			func(id int, _ []int, _ int) { merged = append(merged, id) })
	})
	if err == nil || err.Error() != "block 2: boom" {
		t.Fatalf("err = %v, want block 2's error", err)
	}
	if !reflect.DeepEqual(merged, []int{0, 1}) {
		t.Fatalf("merged %v, want [0 1]", merged)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stream returned, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamStopHandsOutNothing: a closed Stop hands out no further
// block. Closed before the stream starts, no block is read; closed during
// block 2's merge at one worker, blocks 0–2 are all that ran; at four
// workers every block that ran was merged, in order, and Stream reports
// ErrStopped each time — also when Stop closes in the last block's merge,
// after every block has gone out.
func TestStreamStopHandsOutNothing(t *testing.T) {
	p := grid.MustNew([]int{8, 8, 8}, []int{4, 4, 4})
	for _, tc := range []struct {
		workers, stopAt int // stopAt < 0: closed before the stream starts
	}{{1, -1}, {4, -1}, {1, 2}, {4, 2}, {1, 63}, {4, 63}} {
		stop := make(chan struct{})
		if tc.stopAt < 0 {
			close(stop)
		}
		var ran atomic.Int64
		var merged []int
		var err error
		within(t, fmt.Sprintf("%+v", tc), func() {
			err = Stream(&idSource{p: p}, tc.workers, stop, nil, noState,
				func(s struct{}, id int, vec []int, read func() (any, error)) (int, error) {
					ran.Add(1)
					return readID(s, id, vec, read)
				},
				func(id int, _ []int, _ int) {
					merged = append(merged, id)
					if id == tc.stopAt {
						close(stop)
					}
				})
		})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("%+v: err = %v, want ErrStopped", tc, err)
		}
		want := tc.stopAt + 1
		if tc.workers > 1 && tc.stopAt >= 0 {
			want = len(merged)
		}
		if int(ran.Load()) != want || len(merged) != want {
			t.Fatalf("%+v: %d blocks ran, %d merged, want %d", tc, ran.Load(), len(merged), want)
		}
		for i, id := range merged {
			if id != i {
				t.Fatalf("%+v: merge order %v", tc, merged)
			}
		}
	}
}

// reuseSource serves fresh blocks through Block and records the buffer
// each BlockInto call is handed.
type reuseSource struct {
	p      *grid.Pattern
	mu     sync.Mutex
	handed map[int]any // block id → the buf its BlockInto received
}

func (s *reuseSource) Pattern() *grid.Pattern { return s.p }

func (s *reuseSource) Block(vec []int) (any, error) { return s.BlockInto(nil, vec) }

func (s *reuseSource) BlockInto(buf any, vec []int) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handed[s.p.Linear(vec)] = buf
	return new(int), nil
}

// TestStreamHandsBackThePreviousBlock: a worker's read passes BlockInto
// the block that worker read last; a block the per-block function skips
// is not read and does not replace it.
func TestStreamHandsBackThePreviousBlock(t *testing.T) {
	p := grid.MustNew([]int{8, 8, 8}, []int{1, 1, 4})
	src := &reuseSource{p: p, handed: map[int]any{}}
	blocks := map[int]any{}
	err := Stream(src, 1, nil, nil, noState,
		func(_ struct{}, id int, _ []int, read func() (any, error)) (any, error) {
			if id == 2 {
				return nil, nil // decided without reading
			}
			return read()
		},
		func(id int, _ []int, b any) { blocks[id] = b })
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.handed[2]; ok {
		t.Fatal("block 2 was read although its function never called read")
	}
	if src.handed[0] != nil || src.handed[1] != blocks[0] || src.handed[3] != blocks[1] {
		t.Fatalf("BlockInto was handed %v, want nil, block 0, block 1 (blocks %v)", src.handed, blocks)
	}
}

// TestStreamLendsBuffersAcrossPasses: with a Buffers, a pass's first read
// is handed the last block of an earlier pass, and a source without
// BlockInto is neither lent a buffer nor leaves one behind.
func TestStreamLendsBuffersAcrossPasses(t *testing.T) {
	p := grid.MustNew([]int{8, 8, 8}, []int{1, 1, 3})
	var bufs Buffers
	pass := func(src Source) map[int]any {
		blocks := map[int]any{}
		err := Stream(src, 1, nil, &bufs, noState,
			func(_ struct{}, _ int, _ []int, read func() (any, error)) (any, error) { return read() },
			func(id int, _ []int, b any) { blocks[id] = b })
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	first := pass(&reuseSource{p: p, handed: map[int]any{}})
	src := &reuseSource{p: p, handed: map[int]any{}}
	pass(src)
	if src.handed[0] == nil || src.handed[0] != first[2] {
		t.Fatalf("the second pass's first read was handed %v, want the first pass's last block %v", src.handed[0], first[2])
	}
	pass(&idSource{p: p})
	if got := bufs.take(); got == nil {
		t.Fatal("a pass over a source without BlockInto took the lent buffer")
	} else if _, isID := got.(int); isID {
		t.Fatal("a pass over a source without BlockInto left its block behind")
	}
}
