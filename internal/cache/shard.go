package cache

import "math/bits"

// Add accumulates o into s. Shard hierarchies own disjoint set
// partitions, so summing their per-level stats reproduces the serial
// hierarchy's counters exactly.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.LoadHits += o.LoadHits
	s.LoadMisses += o.LoadMisses
	s.StoreHits += o.StoreHits
	s.StoreMisses += o.StoreMisses
	s.Writebacks += o.Writebacks
}

// ShardCount returns the number of address-partition shards (a power
// of two, at most limit) across which replay can simulate hc's
// hierarchy in parallel with results identical to a single serial
// hierarchy.
//
// The partition keys on low block-number bits: shard(addr) =
// (addr/Block) & (n-1). Correctness needs every access that can touch
// a given cache set — including L2 accesses induced by L1 misses and
// dirty-victim writebacks — to land in the set's shard:
//
//   - With n ≤ sets at a level, the shard bits are the low bits of
//     that level's set index, so each shard owns a disjoint group of
//     sets and no line ever migrates between shards.
//   - L1 victims come from the set being filled, hence share its shard;
//     the writeback's L2 access stays in-shard because both levels key
//     the shard off the same block-number bits — which requires equal
//     block sizes at both levels.
//
// Within a shard, accesses keep their relative commit order, so LRU
// decisions per set are unchanged (each Cache's private tick counter
// advances differently than in the serial run, but LRU compares ages
// only within one set, where order is preserved). Hence n =
// min(2^⌊log2(limit)⌋, L1 sets, L2 sets), or 1 when the block sizes
// differ or any configuration is invalid.
func ShardCount(hc HierarchyConfig, limit int) int {
	if limit < 1 {
		return 1
	}
	if hc.L1.Validate() != nil || hc.L2.Validate() != nil || hc.L1.Block != hc.L2.Block {
		return 1
	}
	n := 1
	for n*2 <= limit {
		n *= 2
	}
	if s := int(hc.L1.Size / (uint64(hc.L1.Assoc) * hc.L1.Block)); n > s {
		n = s
	}
	if s := int(hc.L2.Size / (uint64(hc.L2.Assoc) * hc.L2.Block)); n > s {
		n = s
	}
	return n
}

// ShardOf returns the shard owning addr under an n-way partition
// produced by ShardCount for a hierarchy with the given block size.
// n must be a power of two.
func ShardOf(addr uint64, block uint64, n int) int {
	return int((addr / block) & uint64(n-1))
}

// ShardConfig returns the geometry of one shard's private hierarchy
// under an n-way partition produced by ShardCount: each level keeps
// only its 1/n of the sets (Size/n, same ways and block), since a
// shard never touches the others' sets.
func ShardConfig(hc HierarchyConfig, n int) HierarchyConfig {
	hc.L1.Size /= uint64(n)
	hc.L2.Size /= uint64(n)
	return hc
}

// ShardLocal maps an address a shard of an n-way partition owns to its
// address in the shard's ShardConfig hierarchy by dropping the low
// log2(n) block-number bits, which are the shard bits and so the same
// for every owned address. Under ShardCount's partition those bits are
// the low set-index bits at both levels: the local address keeps its
// tag and lands in the owned set's local index, so every hit, victim,
// writeback and LRU decision is the full hierarchy's, and victim
// addresses stay in local form for the level below.
func ShardLocal(addr, block uint64, n int) uint64 {
	return (addr / block >> uint(bits.TrailingZeros(uint(n)))) * block
}
