// Package cache simulates the paper's two-level data-cache hierarchy
// (Table 3): a 64 KB 2-way 64 B-block write-back write-allocate L1
// data cache in front of a 4 MB direct-mapped 64 B-block L2, with the
// 3/5/72-cycle L1/L2/memory latencies used in the paper's AMAT
// arithmetic (Section 2.1).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Name      string
	Size      uint64 // total bytes
	Assoc     int    // ways; Size/(Assoc*Block) sets
	Block     uint64 // line size in bytes
	WriteBack bool   // write-back + write-allocate when true
}

// Validate checks the geometry is a power-of-two and consistent.
func (c Config) Validate() error {
	if c.Size == 0 || c.Block == 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: zero geometry", c.Name)
	}
	if c.Size&(c.Size-1) != 0 || c.Block&(c.Block-1) != 0 {
		return fmt.Errorf("cache %s: size/block must be powers of two", c.Name)
	}
	sets := c.Size / (uint64(c.Assoc) * c.Block)
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets (must be a power of two >= 1)", c.Name, sets)
	}
	return nil
}

// Stats accumulates per-level access statistics.
type Stats struct {
	Accesses    uint64 // loads + stores presented to this level
	LoadHits    uint64
	LoadMisses  uint64
	StoreHits   uint64
	StoreMisses uint64
	Writebacks  uint64
}

// Misses returns total misses at this level.
func (s Stats) Misses() uint64 { return s.LoadMisses + s.StoreMisses }

// LocalMissRate is misses at this level over accesses to this level.
func (s Stats) LocalMissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses)
}

// LoadMissRate is load misses over load accesses at this level (the
// paper's Table 2 reports load behaviour).
func (s Stats) LoadMissRate() float64 {
	loads := s.LoadHits + s.LoadMisses
	if loads == 0 {
		return 0
	}
	return float64(s.LoadMisses) / float64(loads)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// age is the LRU timestamp; the smallest age in a set is the
	// victim.
	age uint64
}

// Cache is one set-associative level. It models tags only (no data).
type Cache struct {
	cfg      Config
	sets     [][]line
	setShift uint
	setMask  uint64
	tick     uint64
	stats    Stats
}

// New builds a cache from cfg; panics on invalid geometry (a
// programming error, since configs are compile-time constants).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.Size / (uint64(cfg.Assoc) * cfg.Block)
	sets := make([][]line, numSets)
	backing := make([]line, numSets*uint64(cfg.Assoc))
	for i := range sets {
		sets[i] = backing[uint64(i)*uint64(cfg.Assoc) : (uint64(i)+1)*uint64(cfg.Assoc)]
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		setShift: uint(bits.TrailingZeros64(cfg.Block)),
		setMask:  numSets - 1,
	}
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = line{}
		}
	}
	c.stats = Stats{}
	c.tick = 0
}

// AccessResult reports what one access did.
type AccessResult struct {
	Hit        bool
	Evicted    bool   // a valid line was displaced
	Writeback  bool   // the displaced line was dirty
	VictimAddr uint64 // block address of the displaced line
}

// Access presents one load (isStore=false) or store (isStore=true) to
// the cache and updates LRU state. On a miss the block is allocated
// (write-allocate); the displaced victim, if dirty, is reported as a
// writeback for the next level.
func (c *Cache) Access(addr uint64, isStore bool) AccessResult {
	c.tick++
	c.stats.Accesses++
	blockAddr := addr >> c.setShift
	setIdx := blockAddr & c.setMask
	tag := blockAddr >> uint(bits.TrailingZeros64(uint64(len(c.sets))))
	set := c.sets[setIdx]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].age = c.tick
			if isStore {
				c.stats.StoreHits++
				if c.cfg.WriteBack {
					set[i].dirty = true
				}
			} else {
				c.stats.LoadHits++
			}
			return AccessResult{Hit: true}
		}
	}

	// Miss: allocate, evicting LRU.
	if isStore {
		c.stats.StoreMisses++
	} else {
		c.stats.LoadMisses++
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].age < set[victim].age {
				victim = i
			}
		}
	}
	res := AccessResult{}
	if set[victim].valid {
		res.Evicted = true
		res.VictimAddr = (set[victim].tag*uint64(len(c.sets)) + setIdx) << c.setShift
		if set[victim].dirty {
			res.Writeback = true
			c.stats.Writebacks++
		}
	}
	set[victim] = line{tag: tag, valid: true, dirty: isStore && c.cfg.WriteBack, age: c.tick}
	return res
}

// Contains reports whether addr's block is resident (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	blockAddr := addr >> c.setShift
	setIdx := blockAddr & c.setMask
	tag := blockAddr >> uint(bits.TrailingZeros64(uint64(len(c.sets))))
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}
