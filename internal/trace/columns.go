package trace

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
)

// columnSource streams decoded column chunks from a work-claiming
// worker pool: each worker atomically claims the next undecoded chunk,
// so a worker that lands on a cheap chunk immediately claims another
// instead of idling behind a fixed stripe (the failure mode of striped
// ownership when chunk decode costs are skewed — exactly the shape a
// trace has, where a loop-dominated chunk is a handful of tokens
// and a branchy one is thousands). Commit order is restored by a slot
// ring: chunk c is delivered through slot (c-lo) mod window, and its
// claimant is admitted only once the consumer has taken chunk
// c-window, which frees the slot and bounds decoded chunks in flight.
// Admission is by chunk index, not by a token on the slot: a claimant
// that falls a window behind must not lose its slot to the claimant of
// the chunk a window later, or the two would be delivered swapped.
// Decode slabs are recycled through columnSlabs and decoders through
// the package decoder pool, so steady-state decoding allocates
// nothing.
type columnSource struct {
	slots []chan colMsg // cap 1 each: the slot's decoded chunk or error
	claim atomic.Int64
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
	lo    int
	hi    int
	err   error
	// closed is set by Close; Next then fails with ErrClosed.
	closed atomic.Bool

	// mu guards next and stopped; cond wakes claimants waiting in admit
	// whenever the consumer advances or the source stops. Only the
	// consumer writes next.
	mu      sync.Mutex
	cond    sync.Cond
	next    int
	stopped bool
}

// columnSlabs recycles *runstream.Chunk decode slabs across every
// column source, so a reader that opens many short sources (one per
// sampled interval) reuses the slabs its earlier sources released
// instead of growing fresh ones each time.
var columnSlabs sync.Pool

type colMsg struct {
	ch  *runstream.Chunk
	err error
}

// chunksPerWorker sizes the delivery ring per worker: how many decoded
// chunks may sit between the claim frontier and the consumer before
// claimants block in admit.
const chunksPerWorker = 3

// Columns returns a column source over chunks [lo, hi), decoded by a
// pool of work-claiming workers (clamped to at least 1). Chunks are
// read directly at their indexed offsets, so workers share nothing but
// the ReaderAt and the immutable bound dictionary; each chunk is
// validated (frame CRC and span, base and event-count cross-checks
// against the index) and decoded exactly as Range decodes it. The context is checked once per
// chunk. After Close, Next fails with ErrClosed.
func (ir *IndexedReader) Columns(ctx context.Context, prog *isa.Program, lo, hi, workers int) runstream.Source {
	if lo < 0 || hi > len(ir.chunks) || lo > hi {
		panic(fmt.Sprintf("trace: Columns [%d,%d) outside %d chunks", lo, hi, len(ir.chunks)))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > hi-lo {
		workers = hi - lo
	}
	s := &columnSource{stop: make(chan struct{}), lo: lo, hi: hi, next: lo}
	s.cond.L = &s.mu
	s.claim.Store(int64(lo))
	if workers == 0 {
		return s // empty range: Next returns io.EOF immediately
	}
	// Bind the dictionary to prog once, up front: workers then share
	// its per-run class offsets read-only.
	if err := ir.dict.bindShared(prog); err != nil {
		s.err = err
		return s
	}
	window := workers * chunksPerWorker
	if window > hi-lo {
		window = hi - lo
	}
	s.slots = make([]chan colMsg, window)
	for i := range s.slots {
		s.slots[i] = make(chan colMsg, 1)
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker(ctx, ir)
	}
	return s
}

func (s *columnSource) worker(ctx context.Context, ir *IndexedReader) {
	defer s.wg.Done()
	dec := getDecoder(ir.dict)
	defer dec.put()
	for {
		c := int(s.claim.Add(1)) - 1
		if c >= s.hi {
			return
		}
		if !s.admit(c) {
			return
		}
		var msg colMsg
		msg.ch, msg.err = ir.decodeColumns(ctx, dec, c)
		select {
		case s.slots[(c-s.lo)%len(s.slots)] <- msg:
		case <-s.stop:
			return
		}
		if msg.err != nil {
			// The consumer sees the error at this chunk's ordered
			// position and closes stop; don't claim past it.
			return
		}
	}
}

// decodeColumns reads, validates, and column-decodes chunk c through
// dec into a pooled chunk. ir's dictionary must be bound.
func (ir *IndexedReader) decodeColumns(ctx context.Context, dec *decoder, c int) (*runstream.Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("trace: columns: %w", err)
	}
	f, err := ir.frameAt(c, &dec.frame)
	if err != nil {
		return nil, err
	}
	raw, err := dec.frameBytes(f)
	if err != nil {
		return nil, err
	}
	ch, _ := columnSlabs.Get().(*runstream.Chunk)
	if ch == nil {
		ch = &runstream.Chunk{}
	}
	err = decodeChunkColumnsV4(raw, ir.dict, ch, &dec.sc)
	if err == nil {
		err = ir.checkChunk(c, ch.Base, ch.N)
	}
	if err != nil {
		columnSlabs.Put(ch)
		return nil, err
	}
	return ch, nil
}

// Next implements runstream.Source.
func (s *columnSource) Next() (*runstream.Chunk, func(), error) {
	if s.closed.Load() {
		return nil, nil, ErrClosed
	}
	if s.err != nil {
		return nil, nil, s.err
	}
	if s.next >= s.hi {
		return nil, nil, io.EOF
	}
	var msg colMsg
	select {
	case msg = <-s.slots[(s.next-s.lo)%len(s.slots)]:
	case <-s.stop:
		// Only Close stops the source without an error Next has
		// already returned.
		return nil, nil, ErrClosed
	}
	if msg.err != nil {
		s.err = msg.err
		s.halt()
		return nil, nil, msg.err
	}
	s.mu.Lock()
	s.next++ // admits the chunk one window later
	s.mu.Unlock()
	s.cond.Broadcast()
	ch := msg.ch
	release := func() { columnSlabs.Put(ch) }
	return ch, release, nil
}

// Close implements runstream.Source, stopping the decode workers. It
// is safe to call at any time; in-flight chunks stay valid until their
// release functions run, and later Next calls fail with ErrClosed.
func (s *columnSource) Close() {
	s.closed.Store(true)
	s.halt()
	s.wg.Wait()
}

// admit blocks until chunk c may be decoded — the consumer has taken
// chunk c-window, so c's slot is free — and reports false instead once
// the source has stopped.
func (s *columnSource) admit(c int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c >= s.next+len(s.slots) && !s.stopped {
		s.cond.Wait()
	}
	return !s.stopped
}

// halt stops the decode workers: blocked deliveries see stop, and
// claimants waiting for admission wake and quit.
func (s *columnSource) halt() {
	s.once.Do(func() {
		close(s.stop)
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
		s.cond.Broadcast()
	})
}
