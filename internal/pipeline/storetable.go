package pipeline

// Store-to-load forwarding state bounds. The model has always emptied
// its forwarding state when an insert made it hold more than
// storeTableMax words; cycle counts depend on that rule, so the table
// keeps it exactly. At most storeTableMax words live in
// storeTableMaxSlots slots, so the load factor never passes 1/2.
const (
	storeTableMax      = 1 << 16
	storeTableMinBits  = 8
	storeTableMinSlots = 1 << storeTableMinBits
	storeTableMaxSlots = 1 << 17
)

// storeTable maps an 8-byte-aligned address to the completion time of
// the last store to it: open addressing with linear probing over a
// power-of-two slot array that starts at storeTableMinSlots and
// doubles, up to storeTableMaxSlots, whenever it would pass half full.
// Emptying it clears the slots in place.
type storeTable struct {
	slots []storeSlot
	shift uint // 64 - log2(len(slots)), for Fibonacci hashing
	n     int  // live words
}

// storeSlot holds one word. The key is the aligned address with bit 0
// set, so the zero key marks an empty slot even for address 0.
type storeSlot struct {
	key uint64
	t   int64
}

func newStoreTable() storeTable {
	return storeTable{slots: make([]storeSlot, storeTableMinSlots), shift: 64 - storeTableMinBits}
}

// home returns the first slot key probes.
func (s *storeTable) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> s.shift
}

// lookup returns the completion time stored for the aligned address
// word, if any.
func (s *storeTable) lookup(word uint64) (int64, bool) {
	key := word | 1
	mask := uint64(len(s.slots) - 1)
	for i := s.home(key); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.key == key {
			return sl.t, true
		}
		if sl.key == 0 {
			return 0, false
		}
	}
}

// store records t for the aligned address word. Overwriting a live
// word never empties the table; inserting a new word when the table
// already holds storeTableMax empties it, new word included, as the
// map this replaces did after such an insert.
func (s *storeTable) store(word uint64, t int64) {
	key := word | 1
	mask := uint64(len(s.slots) - 1)
	i := s.home(key)
	for ; s.slots[i].key != 0; i = (i + 1) & mask {
		if s.slots[i].key == key {
			s.slots[i].t = t
			return
		}
	}
	if s.n == storeTableMax {
		clear(s.slots)
		s.n = 0
		return
	}
	if 2*(s.n+1) > len(s.slots) && len(s.slots) < storeTableMaxSlots {
		s.grow()
		mask = uint64(len(s.slots) - 1)
		for i = s.home(key); s.slots[i].key != 0; i = (i + 1) & mask {
		}
	}
	s.slots[i] = storeSlot{key: key, t: t}
	s.n++
}

// grow doubles the slot array and reinserts every live word.
func (s *storeTable) grow() {
	old := s.slots
	s.slots = make([]storeSlot, 2*len(old))
	s.shift--
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.key == 0 {
			continue
		}
		i := s.home(sl.key)
		for s.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}
