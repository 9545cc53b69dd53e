package pipeline

import (
	"math/rand"
	"testing"
)

// mapStoreTable is the forwarding state the open-addressed table
// replaced: a Go map emptied after any insert that leaves it holding
// more than storeTableMax words.
type mapStoreTable map[uint64]int64

func (m mapStoreTable) store(word uint64, t int64) {
	m[word] = t
	if len(m) > storeTableMax {
		clear(m)
	}
}

// TestStoreTableMatchesMap drives the table and the map rule in
// lockstep through random inserts, overwrites and lookups over more
// than two clear cycles' worth of distinct words. Overwrites are
// concentrated where the rule is easiest to get wrong: with the table
// exactly full (an overwrite must not empty it; the next new word
// must), and on both sides of every growth step.
func TestStoreTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	st := newStoreTable()
	oracle := mapStoreTable{}
	var words []uint64 // every word ever stored, in first-store order
	clock := int64(0)

	check := func(word uint64) {
		t.Helper()
		got, gok := st.lookup(word)
		want, wok := oracle[word]
		if got != want || gok != wok {
			t.Fatalf("lookup(%#x) = %d, %v; map has %d, %v (table %d words, %d slots)",
				word, got, gok, want, wok, st.n, len(st.slots))
		}
	}
	store := func(word uint64) {
		t.Helper()
		clock++
		st.store(word, clock)
		oracle.store(word, clock)
		if st.n != len(oracle) {
			t.Fatalf("after store(%#x): table holds %d words, map %d", word, st.n, len(oracle))
		}
		check(word)
		check(words[rng.Intn(len(words))])
		check(rng.Uint64() &^ 7)
	}
	// newWord returns an unused aligned word: mostly a dense stride (as
	// array stores produce), sometimes a random 64-bit address, and
	// address 0 first, whose key must not read as an empty slot.
	next := uint64(0)
	newWord := func() uint64 {
		var w uint64
		if len(words) > 0 && rng.Intn(4) == 0 {
			w = rng.Uint64() &^ 7
		} else {
			w = next
			next += 8
		}
		words = append(words, w)
		return w
	}
	overwriteBurst := func() {
		t.Helper()
		for k := 0; k < 8; k++ {
			store(words[len(words)-1-rng.Intn(min(len(words), 64))])
		}
	}
	// Boundaries: table sizes at which the next new word grows the
	// slot array, and the full table.
	boundary := map[int]bool{storeTableMax: true}
	for slots := storeTableMinSlots; slots < storeTableMaxSlots; slots *= 2 {
		boundary[slots/2] = true
	}

	clears := 0
	for clears < 2 {
		before := st.n
		if boundary[before] {
			overwriteBurst()
		}
		store(newWord())
		if st.n < before {
			clears++
			if before != storeTableMax || st.n != 0 {
				t.Fatalf("new word at %d words left %d", before, st.n)
			}
		}
		if boundary[before] {
			overwriteBurst()
		}
		switch rng.Intn(8) {
		case 0:
			store(words[rng.Intn(len(words))]) // overwrite, or revive a cleared word
		case 1:
			check(words[rng.Intn(len(words))])
		}
	}
	if len(words) <= storeTableMax {
		t.Fatalf("only %d distinct words stored", len(words))
	}
	if len(st.slots) != storeTableMaxSlots {
		t.Errorf("table has %d slots after clearing, want %d kept in place", len(st.slots), storeTableMaxSlots)
	}
	for _, w := range words {
		check(w)
	}
}
