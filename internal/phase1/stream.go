package phase1

import (
	"runtime"
	"sync"
)

// Stream is the one pass over a Source's blocks that every reader of the
// tensor goes through: Run, Phase 0's two passes and the tiled fit pass.
// Blocks go out in id order to up to workers goroutines (<= 0: GOMAXPROCS),
// each with its own state from newWorker (nil: the zero W). do runs on the
// worker and calls read if it wants the block, which reuses the storage of
// the worker's previous block when the source has BlockInto(buf any, vec
// []int) (any, error). Partials merge on the caller in block-id order, so
// a summing merge has the serial bits at every worker count; at one worker
// one block and one partial are live at a time.
//
// Stop is checked on its own before each hand-out: once it is closed no
// block goes out, those in flight finish and merge, and Stream returns
// ErrStopped (a nil stop never fires). An error from do stops the hand-out
// too; the lowest block id's error is returned, and only the blocks before
// it merge. Every worker has exited when Stream returns.
func Stream[W, P any](src Source, workers int, stop <-chan struct{},
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
			var last any // this worker's previous block; nothing else keeps it
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
	if err == nil {
		err = stopped
	}
	return err
}
