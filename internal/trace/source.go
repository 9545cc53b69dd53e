package trace

import (
	"errors"
	"sync"

	"bioperfload/internal/sim"
)

// ErrClosed is returned by Next after Close, on both the event source
// (Range) and the column source (Columns): a closed source is
// sticky-dead rather than reading from released buffers.
var ErrClosed = errors.New("trace: source closed")

// Source streams a trace as slabs of simulator events in commit
// order, one slab per chunk: the chunk's column decode expanded by
// sim.AppendEvents. Next returns a slab plus a release function; the
// slab is recycled only after release is called, so a consumer may
// hold several outstanding slabs as long as each is eventually
// released. Next returns io.EOF after the last chunk of the range.
type Source struct {
	next  func() ([]sim.Event, func(), error)
	close func()

	// mu is held across each decode, so Close never returns the
	// source's pooled decoder while a Next is still using it.
	mu     sync.Mutex
	closed bool
}

// Next returns the next event slab in commit order. After Close it
// returns ErrClosed.
func (s *Source) Next() ([]sim.Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	return s.next()
}

// Close releases the source's resources (decoder, buffers) and makes
// further Next calls fail with ErrClosed. It is safe to call after an
// error, mid-stream, or more than once.
func (s *Source) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.close()
}

// slabPool recycles event slabs between release and the next decode.
type slabPool struct{ p sync.Pool }

// get returns an empty slab, reusing a released one's storage.
func (sp *slabPool) get() []sim.Event {
	if e, ok := sp.p.Get().(*[]sim.Event); ok {
		return (*e)[:0]
	}
	return nil
}

func (sp *slabPool) release(evs []sim.Event) func() {
	return func() { sp.p.Put(&evs) }
}
