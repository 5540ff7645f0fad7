package phase1

import (
	"runtime"
	"sync"
)

// Stream is the one pass over a Source's blocks that every reader of the
// tensor goes through: Run, Phase 0's two passes and the tiled fit pass.
// Blocks go out in id order to up to workers goroutines (<= 0: GOMAXPROCS),
// each with its own state from newWorker (nil: the zero W). do runs on the
// worker and calls read if it wants the block. When the source has
// BlockInto(buf any, vec []int) (any, error), read reuses the storage of the
// worker's previous block, and the first read of a worker reuses a buffer
// bufs holds from an earlier pass; each worker's last block goes back to
// bufs when the pass ends. So a run that lends every pass the same Buffers
// holds one block per worker, however many passes read X (a nil bufs:
// storage of the pass's own). Partials merge on the caller in block-id
// order, so a summing merge has the serial bits at every worker count; at
// one worker one block and one partial are live at a time.
//
// Stop is checked on its own before each hand-out and once more at the
// end: once it is closed no block goes out, those in flight finish and
// merge, and Stream returns ErrStopped (a nil stop never fires), also when
// it closed after the last hand-out. An error from do stops the hand-out
// too; the lowest block id's error is returned, and only the blocks before
// it merge. Every worker has exited when Stream returns.
func Stream[W, P any](src Source, workers int, stop <-chan struct{}, bufs *Buffers,
	newWorker func() W,
	do func(w W, id int, vec []int, read func() (any, error)) (P, error),
	merge func(id int, vec []int, part P)) error {
	positions := src.Pattern().Positions()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(positions)), 1)
	type outcome struct {
		id   int
		part P
		err  error
	}
	jobs := make(chan int)
	done := make(chan outcome, workers) // never full: at most workers in flight
	blockInto := func(_ any, vec []int) (any, error) { return src.Block(vec) }
	if r, ok := src.(interface {
		BlockInto(buf any, vec []int) (any, error)
	}); ok {
		blockInto = r.BlockInto
	} else {
		bufs = nil // a plain Block may share storage with the source
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w W
			if newWorker != nil {
				w = newWorker()
			}
			last := bufs.take() // this worker's previous block; nothing else keeps it
			defer func() { bufs.give(last) }()
			for id := range jobs {
				part, err := do(w, id, positions[id], func() (b any, err error) {
					if b, err = blockInto(last, positions[id]); err == nil {
						last = b
					}
					return b, err
				})
				done <- outcome{id, part, err}
			}
		}()
	}

	var err, stopped error
	halted := false
	next, merged, inFlight := 0, 0, 0
	pending := map[int]outcome{}
	for inFlight > 0 || !halted && next < len(positions) {
		if !halted && next < len(positions) && inFlight < workers {
			select {
			case <-stop:
				stopped, halted = ErrStopped, true
			default:
				jobs <- next // fewer than workers in flight: one is free
				next++
				inFlight++
			}
			continue
		}
		o := <-done
		inFlight--
		pending[o.id] = o
		halted = halted || o.err != nil
		for ; err == nil; merged++ {
			o, ok := pending[merged]
			if !ok {
				break
			}
			delete(pending, merged)
			if err = o.err; err == nil {
				merge(o.id, positions[o.id], o.part)
			}
		}
	}
	close(jobs)
	wg.Wait()
	if err == nil && stopped == nil {
		// Every block went out before Stop closed (say, in the last merge).
		select {
		case <-stop:
			stopped = ErrStopped
		default:
		}
	}
	if err == nil {
		err = stopped
	}
	return err
}

// Buffers is block storage a run lends to each of its passes over X, so
// that a later pass reads into what an earlier one left instead of
// allocating its own: a worker takes a buffer when it starts and gives its
// last block back when it exits. Any source's BlockInto may be handed any
// of them. The zero value is empty and ready to use.
type Buffers struct {
	mu   sync.Mutex
	free []any
}

// take returns a held buffer, or nil when there is none.
func (b *Buffers) take() any {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.free)
	if n == 0 {
		return nil
	}
	buf := b.free[n-1]
	b.free = b.free[:n-1]
	return buf
}

// give keeps buf for a later take.
func (b *Buffers) give(buf any) {
	if b == nil || buf == nil {
		return
	}
	b.mu.Lock()
	b.free = append(b.free, buf)
	b.mu.Unlock()
}
