package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "t", Size: 1024, Assoc: 2, Block: 64, WriteBack: true}
}

func TestConfigValidate(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "z"},
		{Name: "np2", Size: 1000, Assoc: 2, Block: 64},
		{Name: "blk", Size: 1024, Assoc: 2, Block: 48},
		{Name: "tiny", Size: 1024, Assoc: 2, Block: 2},
		{Name: "ways", Size: 256, Assoc: 3, Block: 64}, // one set of 3 lines is not 256 B
		{Name: "sets", Size: 1024, Assoc: 3, Block: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s accepted", c.Name)
		}
	}
	if err := PaperConfig().L1.Validate(); err != nil {
		t.Error(err)
	}
	if err := PaperConfig().L2.Validate(); err != nil {
		t.Error(err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	if r := c.Access(0x100, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0x100, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(0x13F, false); !r.Hit {
		t.Error("same-block access missed")
	}
	if r := c.Access(0x140, false); r.Hit {
		t.Error("next-block access hit")
	}
	s := c.Stats()
	if s.LoadHits != 2 || s.LoadMisses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 8 sets (1024/2/64). Three blocks mapping to set 0:
	// block addresses 0, 8, 16 (stride = numSets blocks).
	c := New(small())
	a0, a1, a2 := uint64(0), uint64(8*64), uint64(16*64)
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // a0 now MRU; a1 is LRU
	if r := c.Access(a2, false); r.Hit {
		t.Fatal("a2 should miss")
	}
	if !c.Contains(a0) {
		t.Error("MRU line a0 evicted")
	}
	if c.Contains(a1) {
		t.Error("LRU line a1 survived")
	}
	if !c.Contains(a2) {
		t.Error("a2 not allocated")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(small())
	a0, a1, a2 := uint64(0), uint64(8*64), uint64(16*64)
	c.Access(a0, true) // dirty
	c.Access(a1, false)
	r := c.Access(a2, false) // evicts a0 (LRU, dirty)
	if !r.Evicted || !r.Writeback {
		t.Fatalf("eviction result = %+v", r)
	}
	if r.VictimAddr != a0 {
		t.Errorf("victim addr = %#x, want %#x", r.VictimAddr, a0)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := New(small())
	c.Access(0, false)
	c.Access(8*64, false)
	r := c.Access(16*64, false)
	if !r.Evicted || r.Writeback {
		t.Fatalf("clean eviction result = %+v", r)
	}
}

func TestDirectMapped(t *testing.T) {
	c := New(Config{Name: "dm", Size: 512, Assoc: 1, Block: 64, WriteBack: true})
	// 8 sets. Two conflicting blocks ping-pong.
	a, b := uint64(0), uint64(512)
	for i := 0; i < 4; i++ {
		if r := c.Access(a, false); r.Hit {
			t.Fatal("conflict miss expected for a")
		}
		if r := c.Access(b, false); r.Hit {
			t.Fatal("conflict miss expected for b")
		}
	}
	if c.Stats().LoadMisses != 8 {
		t.Errorf("misses = %d, want 8", c.Stats().LoadMisses)
	}
}

// TestNewStartsEmpty: a fresh cache holds no block and no counts, and
// shares no state with another cache of the same geometry.
func TestNewStartsEmpty(t *testing.T) {
	used := New(small())
	used.Access(0, true)
	c := New(small())
	if c.Stats() != (Stats{}) || c.Contains(0) {
		t.Errorf("fresh cache: stats %+v, contains block 0 %v", c.Stats(), c.Contains(0))
	}
	if r := c.Access(0, false); r.Hit || r.Evicted {
		t.Errorf("first access to a fresh cache = %+v", r)
	}
}

func TestSmallWorkingSetHitsAfterWarmup(t *testing.T) {
	// The paper's key cache observation: chunked access patterns that
	// fit in L1 produce only compulsory misses.
	h := NewHierarchy(PaperConfig())
	const chunk = 32 << 10 // half the L1
	for pass := 0; pass < 10; pass++ {
		for a := uint64(0); a < chunk; a += 8 {
			h.Access(a, false)
		}
	}
	rep := LoadReportOf(PaperConfig().Lat, h.L1().Stats(), h.L2().Stats())
	// 512 compulsory misses out of 40960 accesses = 1.25% overall;
	// steady state after warmup ~ 0 additional misses.
	s := h.L1().Stats()
	if s.LoadMisses != chunk/64 {
		t.Errorf("L1 misses = %d, want %d compulsory", s.LoadMisses, chunk/64)
	}
	// All 512 misses are compulsory and also miss L2, so
	// AMAT = 3 + 0.0125*(5+72) ~= 3.96; the dominating term is the
	// 3-cycle L1 hit latency, as the paper observes.
	if rep.AMAT < 3.9 || rep.AMAT > 4.0 {
		t.Errorf("AMAT = %f, want ~3.96", rep.AMAT)
	}
	if rep.Overall != rep.L1Local*rep.L2Local {
		t.Error("overall rate inconsistent")
	}
}

func TestHierarchyLevelsAndLatency(t *testing.T) {
	h := NewHierarchy(PaperConfig())
	lvl, lat := h.Access(0x4000, false)
	if lvl != LevelMem || lat != 3+5+72 {
		t.Errorf("cold access: %v %d", lvl, lat)
	}
	lvl, lat = h.Access(0x4000, false)
	if lvl != LevelL1 || lat != 3 {
		t.Errorf("warm access: %v %d", lvl, lat)
	}
	// Evict from L1 but stay in L2: L1 has 512 sets; touch two more
	// blocks in the same L1 set (stride = 512 blocks = 32 KiB).
	h.Access(0x4000+32<<10, false)
	h.Access(0x4000+64<<10, false)
	lvl, lat = h.Access(0x4000, false)
	if lvl != LevelL2 || lat != 8 {
		t.Errorf("L2 hit: %v %d, want L2 8", lvl, lat)
	}
}

func TestPaperAMATFormula(t *testing.T) {
	// Blast's Table 2 row: 1.78% L1, 4.05% L2 -> AMAT 3.14.
	r := Report{L1Local: 0.0178, L2Local: 0.0405}
	lat := PaperConfig().Lat
	amat := float64(lat.L1) + r.L1Local*(float64(lat.L2)+r.L2Local*float64(lat.Mem))
	if amat < 3.13 || amat > 3.15 {
		t.Errorf("paper AMAT formula gives %f, want ~3.14", amat)
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMem.String() != "mem" {
		t.Error("Level strings wrong")
	}
}

// Property: hits + misses == accesses, and a repeated address always
// hits the second time in a row.
func TestAccountingInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(small())
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(1 << 14))
			c.Access(addr, rng.Intn(2) == 0)
			if !c.Contains(addr) {
				return false // just-accessed block must be resident
			}
		}
		s := c.Stats()
		return s.LoadHits+s.LoadMisses+s.StoreHits+s.StoreMisses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: a cache never holds more distinct blocks than its capacity.
func TestCapacityInvariant(t *testing.T) {
	c := New(small()) // 16 lines total
	present := 0
	for a := uint64(0); a < 1<<16; a += 64 {
		c.Access(a, false)
	}
	for a := uint64(0); a < 1<<16; a += 64 {
		if c.Contains(a) {
			present++
		}
	}
	if present > 16 {
		t.Errorf("%d blocks resident, capacity 16", present)
	}
}
