// Package cache simulates the paper's two-level data-cache hierarchy
// (Table 3): a 64 KB 2-way 64 B-block write-back write-allocate L1
// data cache in front of a 4 MB direct-mapped 64 B-block L2, with the
// 3/5/72-cycle L1/L2/memory latencies used in the paper's AMAT
// arithmetic (Section 2.1).
//
// Each level keeps its tags in flat, pointer-free arrays (see Cache):
// one 8-byte word per line, plus an 8-byte LRU stamp per line only in
// an associative level. The paper hierarchy is therefore 528 KiB — 512
// KiB of L2 tag words, 8 KiB of L1 tag words and 8 KiB of L1 stamps —
// in three arrays the garbage collector never scans. Every live
// characterization and timing model builds one; an exact-replay memory
// shard builds one holding only its share of the sets (ShardConfig),
// and a sampled replay worker builds one per call and Resets it
// between intervals.
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
	if c.Assoc&(c.Assoc-1) != 0 {
		return fmt.Errorf("cache %s: %d ways (must be a power of two)", c.Name, c.Assoc)
	}
	if c.Block < 4 {
		return fmt.Errorf("cache %s: block of %d bytes (must be at least 4)", c.Name, c.Block)
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

// Cache is one set-associative level. It models tags only (no data).
//
// The tag store is flat, pointer-free arrays, so the garbage collector
// never scans it:
//
//   - lines holds one word per line, tag<<2 | dirty<<1 | valid, and
//     zero means empty. Set s is lines[s<<wayBits : (s+1)<<wayBits].
//   - ages holds each line's LRU stamp (the smallest age in a set is
//     the victim). Only an associative level (Assoc > 1) has one: a
//     direct-mapped set has a single candidate, so it never chooses.
//
// Validate requires Block >= 4, which leaves the two low bits of every
// shifted tag free for the flags, and a power-of-two Assoc.
type Cache struct {
	cfg        Config
	lines      []uint64
	ages       []uint64
	assoc      int
	wayBits    uint   // log2(Assoc)
	setShift   uint   // log2(Block)
	setBits    uint   // log2(number of sets)
	setMask    uint64 // number of sets - 1
	storeDirty uint64 // lineDirty when write-back, else 0
	tick       uint64
	stats      Stats
}

const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
)

// New builds a cache from cfg; panics on invalid geometry (a
// programming error, since configs are compile-time constants).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.Size / (uint64(cfg.Assoc) * cfg.Block)
	c := &Cache{
		cfg:      cfg,
		lines:    make([]uint64, numSets*uint64(cfg.Assoc)),
		assoc:    cfg.Assoc,
		wayBits:  uint(bits.TrailingZeros64(uint64(cfg.Assoc))),
		setShift: uint(bits.TrailingZeros64(cfg.Block)),
		setBits:  uint(bits.TrailingZeros64(numSets)),
		setMask:  numSets - 1,
	}
	if cfg.WriteBack {
		c.storeDirty = lineDirty
	}
	if cfg.Assoc > 1 {
		c.ages = make([]uint64, len(c.lines))
	}
	return c
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// Reset returns the cache to the state New gives: every line empty,
// every LRU stamp and counter zero. It keeps the tag arrays.
func (c *Cache) Reset() {
	clear(c.lines)
	clear(c.ages)
	c.tick = 0
	c.stats = Stats{}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

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
	// Every shift count is below 64; masking says so to the compiler,
	// which then adds no fix-up for larger counts.
	blockAddr := addr >> (c.setShift & 63)
	setIdx := blockAddr & c.setMask
	want := (blockAddr>>(c.setBits&63))<<2 | lineValid
	base := int(setIdx << (c.wayBits & 63))
	set := c.lines[base : base+c.assoc]

	for i, w := range set {
		if w&^lineDirty == want {
			if c.ages != nil {
				c.ages[base+i] = c.tick
			}
			if isStore {
				c.stats.StoreHits++
				set[i] = w | c.storeDirty
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
	victim := 0
	if c.ages != nil {
		victim = -1
		for i, w := range set {
			if w == 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			ages := c.ages[base : base+c.assoc]
			victim = 0
			for i := 1; i < len(ages); i++ {
				if ages[i] < ages[victim] {
					victim = i
				}
			}
		}
		c.ages[base+victim] = c.tick
	}
	res := AccessResult{}
	if old := set[victim]; old != 0 {
		res.Evicted = true
		res.VictimAddr = ((old>>2)<<(c.setBits&63) | setIdx) << (c.setShift & 63)
		if old&lineDirty != 0 {
			res.Writeback = true
			c.stats.Writebacks++
		}
	}
	if isStore {
		want |= c.storeDirty
	}
	set[victim] = want
	return res
}

// Contains reports whether addr's block is resident (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	blockAddr := addr >> (c.setShift & 63)
	base := int((blockAddr & c.setMask) << (c.wayBits & 63))
	want := (blockAddr>>(c.setBits&63))<<2 | lineValid
	for _, w := range c.lines[base : base+c.assoc] {
		if w&^lineDirty == want {
			return true
		}
	}
	return false
}
