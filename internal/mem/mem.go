// Package mem provides the sparse, byte-addressable memory used by the
// VRISC64 functional simulator. Pages are allocated on first touch so
// the data segment and the stack can live gigabytes apart without
// cost, mirroring a real 64-bit address space.
package mem

import (
	"encoding/binary"
	"math"
	"sync"
)

const (
	pageShift = 12
	// PageSize is the allocation granule in bytes.
	PageSize = 1 << pageShift
	pageMask = PageSize - 1
)

type page [PageSize]byte

// tlbSize is the number of direct-mapped translation-cache entries.
// The kernels walk several arrays at once (score matrix, sequence,
// transition tables), so a single-entry cache thrashes between their
// pages; 64 entries indexed by page number cover every hot array of
// the BioPerf kernels and drop the map lookup from ~30% of simulation
// time to noise. Must be a power of two.
const tlbSize = 64

// Memory is a sparse little-endian byte-addressable memory. The zero
// value is ready to use. Memory is not safe for concurrent use.
type Memory struct {
	pages map[uint64]*page

	// Direct-mapped translation cache, indexed by page number. An
	// entry is valid when tlbPage is non-nil and tlbBase matches the
	// requested page base (page 0 is a legal page, so nil-ness, not
	// the base, is the valid bit).
	tlbBase [tlbSize]uint64
	tlbPage [tlbSize]*page
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// pageFor is the hot path: a TLB probe small enough for the compiler
// to inline into every load/store. Misses take the map path in
// pageMiss.
func (m *Memory) pageFor(addr uint64) *page {
	base := addr &^ pageMask
	i := (addr >> pageShift) & (tlbSize - 1)
	if p := m.tlbPage[i]; p != nil && m.tlbBase[i] == base {
		return p
	}
	return m.pageMiss(base, i)
}

// go:noinline keeps the miss path out of pageFor so pageFor itself
// stays under the inlining budget.
//
//go:noinline
func (m *Memory) pageMiss(base, i uint64) *page {
	if m.pages == nil {
		m.pages = make(map[uint64]*page)
	}
	p := m.pages[base]
	if p == nil {
		p, _ = pages.Get().(*page)
		if p == nil {
			p = new(page)
		}
		m.pages[base] = p
	}
	m.tlbBase[i] = base
	m.tlbPage[i] = p
	return p
}

// pages recycles the pages of released memories. Release zeroes a
// page before it puts it here, so a page taken from the pool reads
// zero like a new one.
var pages sync.Pool

// Release zeroes every resident page and returns it to a package pool
// that later memories take their pages from, and leaves m empty. It
// is optional: a memory that is never released is collected as usual.
func (m *Memory) Release() {
	for _, p := range m.pages {
		clear(p[:])
		pages.Put(p)
	}
	m.pages = nil
	m.tlbPage = [tlbSize]*page{}
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	return m.pageFor(addr)[addr&pageMask]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.pageFor(addr)[addr&pageMask] = b
}

// ReadUint64 returns the little-endian 64-bit word at addr. Accesses
// may straddle a page boundary.
func (m *Memory) ReadUint64(addr uint64) uint64 {
	off := addr & pageMask
	p := m.pageFor(addr)
	if off <= PageSize-8 {
		return binary.LittleEndian.Uint64(p[off:])
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.LoadByte(addr+i)) << (8 * i)
	}
	return v
}

// WriteUint64 stores v at addr in little-endian order.
func (m *Memory) WriteUint64(addr uint64, v uint64) {
	off := addr & pageMask
	p := m.pageFor(addr)
	if off <= PageSize-8 {
		binary.LittleEndian.PutUint64(p[off:], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.StoreByte(addr+i, byte(v>>(8*i)))
	}
}

// ReadInt64 returns the two's-complement 64-bit integer at addr.
func (m *Memory) ReadInt64(addr uint64) int64 { return int64(m.ReadUint64(addr)) }

// WriteInt64 stores v at addr.
func (m *Memory) WriteInt64(addr uint64, v int64) { m.WriteUint64(addr, uint64(v)) }

// ReadFloat64 returns the IEEE-754 float64 at addr.
func (m *Memory) ReadFloat64(addr uint64) float64 {
	return math.Float64frombits(m.ReadUint64(addr))
}

// WriteFloat64 stores v at addr.
func (m *Memory) WriteFloat64(addr uint64, v float64) {
	m.WriteUint64(addr, math.Float64bits(v))
}

// StoreBytes copies b into memory starting at addr.
func (m *Memory) StoreBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		off := addr & pageMask
		p := m.pageFor(addr)
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// LoadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) LoadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		off := addr & pageMask
		p := m.pageFor(addr)
		c := copy(out[i:], p[off:])
		i += c
		addr += uint64(c)
	}
	return out
}

// Pages returns the number of resident pages (for tests and stats).
func (m *Memory) Pages() int { return len(m.pages) }
