package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("characterize|prog%03d|classB|hot=6", i)
	}
	return keys
}

// TestLookupBasics pins the contract: the right count, distinct
// members, primary == Lookup(1), and n beyond the membership clamps.
func TestLookupBasics(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := NewRing(nodes)
	for _, key := range testKeys(50) {
		got := r.Lookup(key, 2)
		if len(got) != 2 {
			t.Fatalf("Lookup(%q, 2) returned %d nodes", key, len(got))
		}
		if got[0] == got[1] {
			t.Fatalf("Lookup(%q, 2) repeated node %s", key, got[0])
		}
		if p := r.Primary(key); p != got[0] {
			t.Fatalf("Primary(%q) = %s, Lookup[0] = %s", key, p, got[0])
		}
		if all := r.Lookup(key, 10); len(all) != len(nodes) {
			t.Fatalf("Lookup(%q, 10) = %d nodes, want %d", key, len(all), len(nodes))
		}
	}
	if r.Lookup("k", 0) != nil {
		t.Fatal("Lookup(k, 0) should be nil")
	}
	if NewRing(nil).Primary("k") != "" {
		t.Fatal("empty ring Primary should be empty")
	}
}

// TestRingBalance checks vnode spreading: on a 3-node ring no member
// should own a wildly disproportionate share of keys.
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	keys := testKeys(3000)
	counts := make(map[string]int)
	for _, k := range keys {
		counts[r.Primary(k)]++
	}
	for node, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("node %s owns %.1f%% of keys — ring badly unbalanced: %v",
				node, 100*frac, counts)
		}
	}
}

// TestAddNodeMovesBoundedFraction pins consistent hashing's defining
// property: growing a 3-node ring to 4 reassigns roughly 1/4 of the
// keys (those the new node claims) and nothing else.
func TestAddNodeMovesBoundedFraction(t *testing.T) {
	base := []string{"http://a:1", "http://b:1", "http://c:1"}
	grown := append(append([]string(nil), base...), "http://d:1")
	r3, r4 := NewRing(base), NewRing(grown)
	keys := testKeys(3000)
	moved := 0
	for _, k := range keys {
		before, after := r3.Primary(k), r4.Primary(k)
		if before == after {
			continue
		}
		moved++
		if after != "http://d:1" {
			t.Fatalf("key %q moved %s -> %s, but only the new node may claim keys",
				k, before, after)
		}
	}
	// Expect ~1/4; allow generous slack for vnode placement variance.
	if frac := float64(moved) / float64(len(keys)); frac > 0.40 {
		t.Fatalf("adding a 4th node moved %.1f%% of keys, want ~25%%", 100*frac)
	} else if frac < 0.10 {
		t.Fatalf("adding a 4th node moved only %.1f%% of keys — new node underloaded", 100*frac)
	}
}

// TestRemoveNodeReassignsOnlyItsKeys: shrinking the ring must leave
// every key whose primary survives exactly where it was.
func TestRemoveNodeReassignsOnlyItsKeys(t *testing.T) {
	full := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	shrunk := full[:3] // drop d
	r4, r3 := NewRing(full), NewRing(shrunk)
	for _, k := range testKeys(3000) {
		before, after := r4.Primary(k), r3.Primary(k)
		if before == "http://d:1" {
			if after == "http://d:1" {
				t.Fatalf("key %q still assigned to removed node", k)
			}
			continue
		}
		if before != after {
			t.Fatalf("key %q moved %s -> %s though its primary was not removed",
				k, before, after)
		}
	}
}

// TestLookupDeterministicAcrossOrderings is the property test from the
// issue: a ring built from any permutation (and any duplication) of
// the same node list answers every lookup identically.
func TestLookupDeterministicAcrossOrderings(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	ref := NewRing(nodes)
	keys := testKeys(200)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		shuffled := append([]string(nil), nodes...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if trial%3 == 0 {
			shuffled = append(shuffled, shuffled[rng.Intn(len(shuffled))]) // duplicate
		}
		r := NewRing(shuffled)
		for _, k := range keys {
			want := ref.Lookup(k, 3)
			got := r.Lookup(k, 3)
			if len(want) != len(got) {
				t.Fatalf("trial %d key %q: %v vs %v", trial, k, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("trial %d key %q: lookup differs by ordering: %v vs %v",
						trial, k, got, want)
				}
			}
		}
	}
}
