package mem

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestByteRoundTrip(t *testing.T) {
	m := New()
	m.StoreByte(0, 0xAB)
	m.StoreByte(PageSize-1, 0xCD)
	m.StoreByte(1<<40, 0xEF)
	if m.LoadByte(0) != 0xAB || m.LoadByte(PageSize-1) != 0xCD || m.LoadByte(1<<40) != 0xEF {
		t.Error("byte round trip failed")
	}
	if m.LoadByte(12345) != 0 {
		t.Error("untouched memory not zero")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	m := New()
	m.WriteUint64(64, 0x0102030405060708)
	if got := m.ReadUint64(64); got != 0x0102030405060708 {
		t.Errorf("got %#x", got)
	}
	// Little-endian byte order.
	if m.LoadByte(64) != 0x08 || m.LoadByte(71) != 0x01 {
		t.Error("not little-endian")
	}
}

func TestUint64StraddlesPage(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3)
	m.WriteUint64(addr, 0xDEADBEEFCAFEBABE)
	if got := m.ReadUint64(addr); got != 0xDEADBEEFCAFEBABE {
		t.Errorf("straddle got %#x", got)
	}
	if m.Pages() != 2 {
		t.Errorf("pages = %d, want 2", m.Pages())
	}
}

func TestInt64Negative(t *testing.T) {
	m := New()
	m.WriteInt64(8, -42)
	if got := m.ReadInt64(8); got != -42 {
		t.Errorf("got %d", got)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	m := New()
	for _, v := range []float64{0, 1.5, -math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		m.WriteFloat64(128, v)
		if got := m.ReadFloat64(128); got != v {
			t.Errorf("float64 %v round-tripped to %v", v, got)
		}
	}
	m.WriteFloat64(128, math.NaN())
	if !math.IsNaN(m.ReadFloat64(128)) {
		t.Error("NaN lost")
	}
}

func TestBulkCopy(t *testing.T) {
	m := New()
	data := make([]byte, 3*PageSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := uint64(PageSize - 100) // force page straddles
	m.StoreBytes(addr, data)
	got := m.LoadBytes(addr, len(data))
	if !bytes.Equal(got, data) {
		t.Error("bulk copy mismatch")
	}
}

// TestNewStartsEmpty: a fresh memory reads zero and shares no page
// with another memory.
func TestNewStartsEmpty(t *testing.T) {
	used := New()
	used.WriteUint64(0, 1)
	m := New()
	if m.ReadUint64(0) != 0 || m.Pages() != 1 {
		t.Errorf("fresh memory: read %d, %d pages", m.ReadUint64(0), m.Pages())
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	m.WriteUint64(16, 77)
	if m.ReadUint64(16) != 77 {
		t.Error("zero-value Memory not usable")
	}
}

// Property: distinct word-aligned writes never interfere.
func TestWordIsolation(t *testing.T) {
	f := func(a, b uint32, va, vb uint64) bool {
		addrA := uint64(a) * 8
		addrB := uint64(b) * 8
		if addrA == addrB {
			return true
		}
		m := New()
		m.WriteUint64(addrA, va)
		m.WriteUint64(addrB, vb)
		return m.ReadUint64(addrA) == va && m.ReadUint64(addrB) == vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: last write wins at any address.
func TestLastWriteWins(t *testing.T) {
	f := func(addr uint64, v1, v2 uint64) bool {
		addr &= (1 << 48) - 1
		m := New()
		m.WriteUint64(addr, v1)
		m.WriteUint64(addr, v2)
		return m.ReadUint64(addr) == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriteReadUint64(b *testing.B) {
	m := New()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%8192) * 8
		m.WriteUint64(addr, uint64(i))
		if m.ReadUint64(addr) != uint64(i) {
			b.Fatal("mismatch")
		}
	}
}

// TestReleasedPagesReadZero: Release hands a memory's pages to the
// pool zeroed, so a page a later memory takes from it reads zero like
// a new one. Every page left in the pool is checked, and a memory
// touching the same addresses afterwards must read zero throughout.
func TestReleasedPagesReadZero(t *testing.T) {
	const n = 8
	m := New()
	for i := uint64(0); i < n; i++ {
		m.StoreBytes(i*PageSize, bytes.Repeat([]byte{0xA5}, PageSize))
	}
	m.Release()
	if m.Pages() != 0 || m.LoadByte(0) != 0 {
		t.Fatal("a released memory is not empty")
	}
	var got []*page
	for {
		p, _ := pages.Get().(*page)
		if p == nil {
			break
		}
		if *p != (page{}) {
			t.Fatal("the pool holds a page that is not zero")
		}
		got = append(got, p)
	}
	for _, p := range got {
		pages.Put(p)
	}
	m2 := New()
	for i := uint64(0); i < n; i++ {
		if b := m2.LoadBytes(i*PageSize, PageSize); !bytes.Equal(b, make([]byte, PageSize)) {
			t.Fatalf("page %d of a new memory after a release is not zero", i)
		}
	}
}
