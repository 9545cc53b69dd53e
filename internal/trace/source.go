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
// order. Next returns a slab plus a release function; the slab is
// recycled only after release is called, mirroring the sim.Event slab
// contract, so a consumer may hold several outstanding slabs as long
// as each is eventually released. Next returns io.EOF after the last
// chunk of the range.
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
