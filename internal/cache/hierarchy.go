package cache

// Latencies holds the access latencies (in cycles) the paper uses for
// its average-memory-access-time arithmetic: "our system's L1, L2, and
// main memory latencies of 3, 5, and 72 cycles" (Section 2.1).
type Latencies struct {
	L1  int
	L2  int
	Mem int
}

// HierarchyConfig is a two-level hierarchy plus latencies.
type HierarchyConfig struct {
	L1  Config
	L2  Config
	Lat Latencies
}

// PaperConfig returns the paper's Table 3 cache subsystem: 64 KB 2-way
// 64 B write-back write-allocate L1D, 4 MB direct-mapped 64 B L2, with
// 3/5/72-cycle latencies.
func PaperConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:  Config{Name: "L1D", Size: 64 << 10, Assoc: 2, Block: 64, WriteBack: true},
		L2:  Config{Name: "L2", Size: 4 << 20, Assoc: 1, Block: 64, WriteBack: true},
		Lat: Latencies{L1: 3, L2: 5, Mem: 72},
	}
}

// Level identifies where an access was satisfied.
type Level int

const (
	// LevelL1 means the access hit in the L1 data cache.
	LevelL1 Level = iota
	// LevelL2 means it missed L1 and hit L2.
	LevelL2
	// LevelMem means it missed both caches.
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	default:
		return "mem"
	}
}

// Hierarchy simulates an L1 backed by an L2 backed by main memory.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  *Cache
	l2  *Cache
}

// NewHierarchy builds the two-level hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{cfg: cfg, l1: New(cfg.L1), l2: New(cfg.L2)}
}

// Reset returns both levels to the state NewHierarchy gives, keeping
// their storage.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
}

// L1 returns the first-level cache.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Access runs one load or store through the hierarchy and returns the
// level that satisfied it together with its latency in cycles.
//
// Latency accounting follows the paper's AMAT formula: an L1 hit costs
// Lat.L1; an L1 miss adds Lat.L2; an L2 miss adds Lat.Mem on top.
func (h *Hierarchy) Access(addr uint64, isStore bool) (Level, int) {
	r1 := h.l1.Access(addr, isStore)
	lat := h.cfg.Lat.L1
	lvl := LevelL1
	if !r1.Hit {
		// The fill request reads from L2; a write-allocate store
		// also fetches the block first, so the L2 access is a
		// read either way.
		r2 := h.l2.Access(addr, false)
		lat += h.cfg.Lat.L2
		lvl = LevelL2
		if !r2.Hit {
			lat += h.cfg.Lat.Mem
			lvl = LevelMem
		}
	}
	// Dirty victims written back from L1 update (or allocate into)
	// the L2. Writebacks are off the critical path and add no
	// latency to this access.
	if r1.Writeback {
		h.l2.Access(r1.VictimAddr, true)
	}
	return lvl, lat
}

// Report summarizes hierarchy behaviour for loads the way the paper's
// Table 2 does.
type Report struct {
	// L1Local is the L1 load miss rate (misses/L1 load accesses).
	L1Local float64
	// L2Local is the L2 local miss rate (L2 misses/L2 accesses).
	L2Local float64
	// Overall is the fraction of loads that reach main memory.
	Overall float64
	// AMAT is the paper's formula: L1 + L1local*(L2 + L2local*Mem).
	AMAT float64
}

// LoadReportOf computes the Table 2 row from L1 and L2 counters and
// the hierarchy's latencies. The paper reports load behaviour, so the
// L1 rate uses load accesses; the L2 local rate uses all demand
// accesses at L2 (which are L1 misses).
func LoadReportOf(lat Latencies, s1, s2 Stats) Report {
	r := Report{
		L1Local: s1.LoadMissRate(),
		L2Local: s2.LocalMissRate(),
	}
	r.Overall = r.L1Local * r.L2Local
	r.AMAT = float64(lat.L1) + r.L1Local*(float64(lat.L2)+r.L2Local*float64(lat.Mem))
	return r
}
