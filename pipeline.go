package repro

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The chunk pipeline. The paper's transform is point-wise, so every
// container path handles independent chunks the same way: fetch a chunk,
// run the codec on it, emit it. runChunkPool is that shape, shared by
// the stream compressor and decompressor (stream.go), the seekable range
// reader (seek.go) and the legacy 0xC6 decoder (parallel.go); each path
// supplies only what differs — how a chunk is fetched, what the codec
// step is, and where the result goes.
//
//	producer goroutine ── jobs (unbuffered) ──► workers goroutines
//	        └──────────── order (field order) ──► caller's goroutine
//
// Invariants, for every path:
//
//   - At most workers+2 chunks are alive at once: the producer takes an
//     in-flight slot before it fetches a chunk and the consumer frees it
//     after emitting that chunk. A path that recycles one buffer per
//     chunk through a freelist therefore never holds more than workers+2
//     of them (the bounded-memory guarantee and the WithMemoryBudget
//     formula).
//   - Output is emitted in production order regardless of worker
//     scheduling: the producer hands each chunk to a worker before it
//     queues it on order, so every chunk the consumer waits for is
//     guaranteed a worker.
//   - The first error wins, in production order: a work or consume error
//     on an earlier chunk beats a later one, and a fetch error surfaces
//     only after every chunk fetched before it was emitted. Any error —
//     or ctx cancellation — closes stop once; the producer then fetches
//     nothing more, workers skip the codec step, the consumer drains, and
//     every goroutine has exited before runChunkPool returns.

// chunkItem carries one job through the pipeline.
type chunkItem[J any] struct {
	job  J
	err  error
	done chan struct{}
}

// poolTimes is what runChunkPool measures on behalf of its caller.
type poolTimes struct {
	// read, codec and write are the wall time spent in produce, work
	// (summed over workers) and consume.
	read, codec, write time.Duration
	// maxInFlight is the peak number of chunks alive at once.
	maxInFlight int
}

// runChunkPool runs the chunk pipeline on `workers` goroutines (at least
// one). produce fetches the next job on the producer goroutine and
// returns io.EOF when the input is exhausted; work runs the codec step
// on a worker; consume emits a finished job on the calling goroutine, in
// production order. The returned error is the first one in production
// order, or the context's cause once ctx is cancelled.
func runChunkPool[J any](ctx context.Context, workers int, produce func() (J, error), work func(*J) error, consume func(*J) error) (poolTimes, error) {
	if workers < 1 {
		workers = 1
	}
	maxInFlight := workers + 2
	jobs := make(chan *chunkItem[J])
	// order holds live chunks only, so at the in-flight cap the producer
	// never blocks on it: the consumer paces the producer through slots.
	order := make(chan *chunkItem[J], maxInFlight)
	slots := make(chan struct{}, maxInFlight)
	stop := make(chan struct{})
	var pt poolTimes
	var codecNS atomic.Int64

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				select {
				case <-stop:
				default:
					t0 := time.Now()
					it.err = work(&it.job)
					codecNS.Add(time.Since(t0).Nanoseconds())
				}
				close(it.done)
			}
		}()
	}

	var produceErr error
	go func() {
		defer close(order)
		defer close(jobs)
		for {
			select {
			case slots <- struct{}{}:
			case <-stop:
				return
			}
			select {
			case <-stop:
				return
			case <-ctx.Done():
				produceErr = ctxCause(ctx)
				return
			default:
			}
			t0 := time.Now()
			job, err := produce()
			pt.read += time.Since(t0)
			if err != nil {
				if err != io.EOF {
					produceErr = err
				}
				return
			}
			// Each live chunk holds one slot, so the slots held now are
			// the chunks alive the moment this one becomes live.
			pt.maxInFlight = max(pt.maxInFlight, len(slots))
			it := &chunkItem[J]{job: job, done: make(chan struct{})}
			select {
			case jobs <- it:
			case <-stop:
				return
			}
			select {
			case order <- it:
			case <-stop:
				return
			}
		}
	}()

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			close(stop)
		}
	}
	finish := func(it *chunkItem[J]) {
		<-it.done
		if firstErr == nil {
			err := it.err
			if err == nil {
				t0 := time.Now()
				err = consume(&it.job)
				pt.write += time.Since(t0)
			}
			if err != nil {
				fail(err)
			}
		}
		<-slots
	}
drain:
	for {
		select {
		case it, ok := <-order:
			if !ok {
				break drain
			}
			finish(it)
		case <-ctx.Done():
			fail(ctxCause(ctx))
			for it := range order {
				finish(it)
			}
			break drain
		}
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = produceErr
	}
	pt.codec = time.Duration(codecNS.Load())
	return pt, firstErr
}
