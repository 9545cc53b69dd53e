package trace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// ErrClosed is returned by Source.Next after Close: a closed source is
// sticky-dead rather than reading from a released reader or recycled
// buffers.
var ErrClosed = errors.New("trace: source closed")

// Source streams a trace as slabs of simulator events in commit
// order. Next returns a slab plus a release function; the slab is
// recycled only after release is called, mirroring the sim.Event slab
// contract, so a consumer may hold several outstanding slabs as long
// as each is eventually released. Next returns io.EOF after the last
// chunk, once the footer has been validated against the decoded event
// count.
type Source struct {
	next  func() ([]sim.Event, func(), error)
	close func()

	mu     sync.Mutex
	closed bool
}

// Next returns the next event slab in commit order. After Close it
// returns ErrClosed.
func (s *Source) Next() ([]sim.Event, func(), error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, nil, ErrClosed
	}
	return s.next()
}

// Close releases the source's resources (decode workers, buffers) and
// makes further Next calls fail with ErrClosed. It is safe to call
// after an error, mid-stream, or more than once.
func (s *Source) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.close()
}

// slabPool recycles event slabs between release and the next decode.
type slabPool struct{ p sync.Pool }

func (sp *slabPool) get() []sim.Event {
	if e, ok := sp.p.Get().(*[]sim.Event); ok {
		return *e
	}
	return nil
}

func (sp *slabPool) release(evs []sim.Event) func() {
	return func() { sp.p.Put(&evs) }
}

// Events returns a sequential source: chunks are decoded in the
// caller's goroutine as Next is called, straight into recycled event
// slabs through the fused decoder (no intermediate Record pass), with
// the frame payload and decompression buffers reused across chunks.
func (tr *Reader) Events(prog *isa.Program) *Source {
	dec := &decoder{version: tr.version, dict: tr.dict, grow: true}
	var pool slabPool
	var decoded uint64
	next := func() ([]sim.Event, func(), error) {
		f, err := tr.nextFrame(true)
		if err == io.EOF {
			if decoded != tr.footerEvents {
				return nil, nil, fmt.Errorf("trace: decoded %d events, footer records %d", decoded, tr.footerEvents)
			}
			if err := tr.verifyFooterDict(); err != nil {
				return nil, nil, err
			}
			return nil, nil, io.EOF
		}
		if err != nil {
			return nil, nil, err
		}
		base, evs, err := dec.decodeFrameEvents(f, prog, pool.get())
		if err != nil {
			return nil, nil, err
		}
		if base != decoded {
			return nil, nil, fmt.Errorf("trace: chunk base %d, expected %d", base, decoded)
		}
		decoded += uint64(len(evs))
		return evs, pool.release(evs), nil
	}
	closeFn := func() {
		dec.release()
		tr.payloadBuf = nil
	}
	return &Source{next: next, close: closeFn}
}

// parallelResult is one decoded chunk delivered from a decode worker.
type parallelResult struct {
	evs     []sim.Event
	release func()
	base    uint64
	err     error
}

// parallelJob pairs a frame with the channel its decoded result must
// be delivered on; pushing the channels through an ordered queue keeps
// delivery in commit order while decode itself runs out of order.
type parallelJob struct {
	f   frame
	out chan parallelResult
}

// ParallelEvents returns a source whose chunks are decompressed and
// decoded ahead by a pool of workers, while delivery stays in commit
// order. workers <= 0 sizes the pool from GOMAXPROCS (capped at 4:
// decode-ahead only needs to hide the decode cost behind the consumer,
// not saturate the machine).
func (tr *Reader) ParallelEvents(prog *isa.Program, workers int) *Source {
	if workers <= 0 {
		workers = defaultDecodeWorkers()
	}
	if tr.version >= 4 {
		// The v4 run dictionary grows in commit order; out-of-order
		// chunk decode would race it. One worker still decodes ahead
		// of the consumer.
		workers = 1
	}
	var (
		pool    slabPool
		jobs    = make(chan parallelJob, workers)
		order   = make(chan chan parallelResult, 2*workers)
		stop    = make(chan struct{})
		stopped sync.Once
		wg      sync.WaitGroup
	)

	// Reader goroutine: pull frames off the stream in order, handing
	// each to the worker pool with a per-chunk result channel.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		defer close(order)
		for {
			f, err := tr.nextFrame(false)
			out := make(chan parallelResult, 1)
			if err != nil {
				// io.EOF (footer validated) or a framing error: either
				// way it terminates the ordered stream.
				out <- parallelResult{err: err}
				select {
				case order <- out:
				case <-stop:
				}
				return
			}
			select {
			case order <- out:
			case <-stop:
				return
			}
			select {
			case jobs <- parallelJob{f: f, out: out}:
			case <-stop:
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := &decoder{version: tr.version, dict: tr.dict, grow: true}
			for job := range jobs {
				base, evs, err := dec.decodeFrameEvents(job.f, prog, pool.get())
				if err != nil {
					job.out <- parallelResult{err: err}
					continue
				}
				job.out <- parallelResult{evs: evs, release: pool.release(evs), base: base}
			}
		}()
	}

	var decoded uint64
	next := func() ([]sim.Event, func(), error) {
		out, ok := <-order
		if !ok {
			return nil, nil, io.EOF
		}
		res := <-out
		if res.err == io.EOF {
			if decoded != tr.footerEvents {
				return nil, nil, fmt.Errorf("trace: decoded %d events, footer records %d", decoded, tr.footerEvents)
			}
			if err := tr.verifyFooterDict(); err != nil {
				return nil, nil, err
			}
			return nil, nil, io.EOF
		}
		if res.err != nil {
			return nil, nil, res.err
		}
		if res.base != decoded {
			return nil, nil, fmt.Errorf("trace: chunk base %d, expected %d", res.base, decoded)
		}
		decoded += uint64(len(res.evs))
		return res.evs, res.release, nil
	}
	closeFn := func() {
		stopped.Do(func() { close(stop) })
		// Drain the ordered queue so the reader goroutine is never
		// blocked sending, then wait the pool out.
		go func() {
			for out := range order {
				select {
				case <-out:
				default:
				}
			}
		}()
		wg.Wait()
	}
	return &Source{next: next, close: closeFn}
}

// Replay streams every event of the trace into bo in commit order,
// checking ctx between chunks. It returns the number of events
// replayed.
func (tr *Reader) Replay(ctx context.Context, prog *isa.Program, bo sim.BatchObserver) (uint64, error) {
	src := tr.Events(prog)
	defer src.Close()
	var n uint64
	for {
		if err := ctx.Err(); err != nil {
			return n, fmt.Errorf("trace: replay %s: %w", prog.Name, err)
		}
		evs, release, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		bo.ObserveBatch(evs)
		n += uint64(len(evs))
		release()
	}
}
