package cache

import (
	"math/rand"
	"testing"
)

func TestShardCount(t *testing.T) {
	pc := PaperConfig()
	// Paper hierarchy: 512 L1 sets, 65536 L2 sets, equal 64B blocks.
	for _, c := range []struct{ limit, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {8, 8}, {512, 512}, {1024, 512},
	} {
		if got := ShardCount(pc, c.limit); got != c.want {
			t.Errorf("ShardCount(paper, %d) = %d, want %d", c.limit, got, c.want)
		}
	}
	mixed := pc
	mixed.L2.Block = 128
	if got := ShardCount(mixed, 8); got != 1 {
		t.Errorf("mismatched block sizes: ShardCount = %d, want 1", got)
	}
	bad := pc
	bad.L1.Size = 3000 // not a power-of-two set count
	if got := ShardCount(bad, 8); got != 1 {
		t.Errorf("invalid config: ShardCount = %d, want 1", got)
	}
}

// TestShardedHierarchyMatchesSerial pins the exactness argument in the
// ShardCount doc comment: route each access of a shared-locality
// random trace to its shard's private Hierarchy, and require the
// summed per-level stats (and every per-access result) to match one
// serial Hierarchy.
func TestShardedHierarchyMatchesSerial(t *testing.T) {
	cfg := PaperConfig()
	for _, n := range []int{1, 2, 4, 8} {
		if got := ShardCount(cfg, n); got != n {
			t.Fatalf("ShardCount(paper, %d) = %d", n, got)
		}
		serial := NewHierarchy(cfg)
		shards := make([]*Hierarchy, n)
		for i := range shards {
			shards[i] = NewHierarchy(cfg)
		}
		r := rand.New(rand.NewSource(int64(n)))
		// Mix of hot lines (LRU churn within sets), sequential sweeps
		// (evictions + writebacks), and cold misses.
		hot := make([]uint64, 64)
		for i := range hot {
			hot[i] = uint64(1 + r.Intn(1<<16))
		}
		sweep := uint64(1 << 20)
		for i := 0; i < 200000; i++ {
			var addr uint64
			switch r.Intn(4) {
			case 0, 1:
				addr = hot[r.Intn(len(hot))]
			case 2:
				sweep += cfg.L1.Block
				addr = sweep
			default:
				addr = uint64(1 + r.Intn(1<<28))
			}
			isStore := r.Intn(3) == 0
			wantLvl, wantLat := serial.Access(addr, isStore)
			gotLvl, gotLat := shards[ShardOf(addr, cfg.L1.Block, n)].Access(addr, isStore)
			if gotLvl != wantLvl || gotLat != wantLat {
				t.Fatalf("n=%d access %d (addr %#x store %v): got %v/%d want %v/%d",
					n, i, addr, isStore, gotLvl, gotLat, wantLvl, wantLat)
			}
		}
		var l1, l2 Stats
		for _, sh := range shards {
			l1.Add(sh.L1().Stats())
			l2.Add(sh.L2().Stats())
		}
		if l1 != serial.L1().Stats() {
			t.Fatalf("n=%d: L1 stats %+v, want %+v", n, l1, serial.L1().Stats())
		}
		if l2 != serial.L2().Stats() {
			t.Fatalf("n=%d: L2 stats %+v, want %+v", n, l2, serial.L2().Stats())
		}
	}
}

// TestShardLocalHierarchyMatchesSerial pins ShardConfig and ShardLocal:
// each shard's 1/n-size hierarchy, fed its owned addresses in local
// form, satisfies every access at the same level as one full serial
// hierarchy, and the shards' summed per-level stats equal the serial
// ones. n reaches the paper L1's 512 sets, where each shard's L1 is a
// single set.
func TestShardLocalHierarchyMatchesSerial(t *testing.T) {
	cfg := PaperConfig()
	for _, n := range []int{1, 2, 4, 8, 512} {
		if got := ShardCount(cfg, n); got != n {
			t.Fatalf("ShardCount(paper, %d) = %d", n, got)
		}
		local := ShardConfig(cfg, n)
		if local.L1.Size != cfg.L1.Size/uint64(n) || local.L2.Size != cfg.L2.Size/uint64(n) {
			t.Fatalf("n=%d: ShardConfig sizes %d/%d", n, local.L1.Size, local.L2.Size)
		}
		serial := NewHierarchy(cfg)
		shards := make([]*Hierarchy, n)
		for i := range shards {
			shards[i] = NewHierarchy(local)
		}
		r := rand.New(rand.NewSource(int64(n) + 100))
		hot := make([]uint64, 256)
		for i := range hot {
			hot[i] = uint64(r.Intn(1 << 24))
		}
		sweep := uint64(1 << 30)
		for i := 0; i < 200000; i++ {
			var addr uint64
			switch r.Intn(4) {
			case 0, 1:
				addr = hot[r.Intn(len(hot))] + uint64(r.Intn(64))
			case 2:
				sweep += cfg.L1.Block
				addr = sweep
			default:
				addr = r.Uint64() >> r.Intn(40)
			}
			isStore := r.Intn(3) == 0
			wantLvl, wantLat := serial.Access(addr, isStore)
			sh := shards[ShardOf(addr, cfg.L1.Block, n)]
			gotLvl, gotLat := sh.Access(ShardLocal(addr, cfg.L1.Block, n), isStore)
			if gotLvl != wantLvl || gotLat != wantLat {
				t.Fatalf("n=%d access %d (addr %#x store %v): got %v/%d want %v/%d",
					n, i, addr, isStore, gotLvl, gotLat, wantLvl, wantLat)
			}
		}
		var l1, l2 Stats
		for _, sh := range shards {
			l1.Add(sh.L1().Stats())
			l2.Add(sh.L2().Stats())
		}
		if l1 != serial.L1().Stats() {
			t.Fatalf("n=%d: L1 stats %+v, want %+v", n, l1, serial.L1().Stats())
		}
		if l2 != serial.L2().Stats() {
			t.Fatalf("n=%d: L2 stats %+v, want %+v", n, l2, serial.L2().Stats())
		}
		if l2.Writebacks == 0 || l1.Writebacks == 0 {
			t.Fatalf("n=%d: stream caused no writebacks (L1 %d, L2 %d)", n, l1.Writebacks, l2.Writebacks)
		}
	}
}
