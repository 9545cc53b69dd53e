package cache_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bioperfload/internal/cache"
	"bioperfload/internal/platform"
)

// refCache is the naive model Cache must match access for access:
// each set is a slice of resident blocks ordered from least to most
// recently used, so a hit moves its block to the end and a miss into
// a full set evicts the front.
type refCache struct {
	cfg   cache.Config
	nsets uint64
	sets  map[uint64][]refLine
	stats cache.Stats
}

type refLine struct {
	block uint64 // addr / Block
	dirty bool
}

func newRef(cfg cache.Config) *refCache {
	return &refCache{
		cfg:   cfg,
		nsets: cfg.Size / (uint64(cfg.Assoc) * cfg.Block),
		sets:  make(map[uint64][]refLine),
	}
}

func (r *refCache) access(addr uint64, isStore bool) cache.AccessResult {
	r.stats.Accesses++
	block := addr / r.cfg.Block
	idx := block % r.nsets
	set := r.sets[idx]
	for i, l := range set {
		if l.block != block {
			continue
		}
		if isStore {
			r.stats.StoreHits++
			l.dirty = l.dirty || r.cfg.WriteBack
		} else {
			r.stats.LoadHits++
		}
		set = append(append(set[:i:i], set[i+1:]...), l)
		r.sets[idx] = set
		return cache.AccessResult{Hit: true}
	}
	if isStore {
		r.stats.StoreMisses++
	} else {
		r.stats.LoadMisses++
	}
	var res cache.AccessResult
	if len(set) == r.cfg.Assoc {
		lru := set[0]
		set = set[1:]
		res.Evicted = true
		res.VictimAddr = lru.block * r.cfg.Block
		if lru.dirty {
			res.Writeback = true
			r.stats.Writebacks++
		}
	}
	r.sets[idx] = append(set, refLine{block: block, dirty: isStore && r.cfg.WriteBack})
	return res
}

func (r *refCache) contains(addr uint64) bool {
	block := addr / r.cfg.Block
	for _, l := range r.sets[block%r.nsets] {
		if l.block == block {
			return true
		}
	}
	return false
}

// refGeometries is every platform's L1 and L2, each associativity from
// 1 to 8 at a small size (so sets fill and evict often), and a
// write-through copy of each.
func refGeometries() []cache.Config {
	var cfgs []cache.Config
	for _, p := range platform.All() {
		hc := p.Pipeline.Cache
		cfgs = append(cfgs, hc.L1, hc.L2)
	}
	for _, assoc := range []int{1, 2, 4, 8} {
		for _, block := range []uint64{4, 64} {
			cfgs = append(cfgs, cache.Config{
				Name: fmt.Sprintf("a%d-b%d", assoc, block), Size: 2048, Assoc: assoc, Block: block, WriteBack: true,
			})
		}
	}
	for _, c := range cfgs {
		c.Name += "-wt"
		c.WriteBack = false
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// mixedStream returns n accesses that mix strided walks, random
// touches of a working set about four times the cache's size, and rare
// addresses with arbitrary high bits, about one store in three.
func mixedStream(rng *rand.Rand, size uint64, n int) (addrs []uint64, stores []bool) {
	span := 4 * size
	var walk, stride uint64
	for i := 0; i < n; i++ {
		var a uint64
		switch k := rng.Intn(16); {
		case k < 8:
			if i%512 == 0 {
				walk = rng.Uint64() % span
				stride = uint64(8 << rng.Intn(8))
			}
			walk += stride
			a = walk % span
		case k < 15:
			a = rng.Uint64() % span
		default:
			a = rng.Uint64()
		}
		addrs = append(addrs, a)
		stores = append(stores, rng.Intn(3) == 0)
	}
	return addrs, stores
}

// checkAgainstRef runs one stream through a Cache and the reference
// and reports the first access whose result differs, a residency the
// two disagree on, or differing counters. Before each access i with
// resets[i] set, the counters so far must agree; then the Cache is
// Reset and the reference replaced by a fresh one, so from there on
// the reset Cache must behave exactly as a new one. resets may be nil.
func checkAgainstRef(cfg cache.Config, addrs []uint64, stores, resets []bool) error {
	c, ref := cache.New(cfg), newRef(cfg)
	for i, a := range addrs {
		if i < len(resets) && resets[i] {
			if c.Stats() != ref.stats {
				return fmt.Errorf("%s: before reset at access %d, stats %+v, reference %+v", cfg.Name, i, c.Stats(), ref.stats)
			}
			c.Reset()
			ref = newRef(cfg)
		}
		got, want := c.Access(a, stores[i]), ref.access(a, stores[i])
		if got != want {
			return fmt.Errorf("%s: access %d (%#x store=%v) = %+v, reference %+v", cfg.Name, i, a, stores[i], got, want)
		}
		// Probe a neighbour of the access, which may or may not be
		// resident.
		probe := a ^ (cfg.Size / 2)
		if c.Contains(probe) != ref.contains(probe) {
			return fmt.Errorf("%s: after access %d, Contains(%#x) = %v, reference %v", cfg.Name, i, probe, c.Contains(probe), ref.contains(probe))
		}
	}
	if c.Stats() != ref.stats {
		return fmt.Errorf("%s: stats %+v, reference %+v", cfg.Name, c.Stats(), ref.stats)
	}
	return nil
}

// TestCacheMatchesReference pins Cache to the naive per-set LRU model
// on every AccessResult field, on residency, and on the final Stats,
// over seeded mixed streams for every geometry of refGeometries. Each
// stream is run whole, then again with a Reset halfway, after which
// the warm Cache must match a fresh reference.
func TestCacheMatchesReference(t *testing.T) {
	const n = 20000
	half := make([]bool, n)
	half[n/2] = true
	for _, cfg := range refGeometries() {
		for seed := int64(1); seed <= 3; seed++ {
			addrs, stores := mixedStream(rand.New(rand.NewSource(seed)), cfg.Size, n)
			if err := checkAgainstRef(cfg, addrs, stores, nil); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := checkAgainstRef(cfg, addrs, stores, half); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// FuzzCacheMatchesReference drives the same comparison with arbitrary
// bytes. The first byte picks the geometry. Each access then takes a
// control byte (bit 0: store; bit 1: a full 8-byte address follows,
// otherwise a 2-byte word offset into a dense region, so hits and
// conflicts are common; bit 2: Reset the cache, and start a fresh
// reference, before this access).
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 1, 0, 0, 1, 0, 2})
	f.Add([]byte{10, 1, 0xff, 0xff, 0, 0xff, 0xff, 1, 0, 0, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 1, 0, 1, 1, 0, 1, 5, 0, 1, 0, 0, 1, 4, 0, 0, 0, 0, 1})
	cfgs := refGeometries()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := cfgs[int(data[0])%len(cfgs)]
		var addrs []uint64
		var stores, resets []bool
		for rest := data[1:]; len(rest) > 0; {
			ctl := rest[0]
			rest = rest[1:]
			var a uint64
			if ctl&2 != 0 && len(rest) >= 8 {
				a = binary.LittleEndian.Uint64(rest)
				rest = rest[8:]
			} else if len(rest) >= 2 {
				a = uint64(binary.LittleEndian.Uint16(rest)) * 8
				rest = rest[2:]
			} else {
				rest = nil
			}
			addrs = append(addrs, a)
			stores = append(stores, ctl&1 != 0)
			resets = append(resets, ctl&4 != 0)
		}
		if err := checkAgainstRef(cfg, addrs, stores, resets); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPaperHierarchyFootprint pins the size of the paper hierarchy's
// tag store: one 8-byte word per line (65,536 in the L2, 1,024 in the
// L1) plus the L1's LRU stamps is about 528 KiB. Every timing model
// and characterization memory lane builds one.
func TestPaperHierarchyFootprint(t *testing.T) {
	const builds = 4
	var hs [builds]*cache.Hierarchy
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range hs {
		hs[i] = cache.NewHierarchy(cache.PaperConfig())
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(hs)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > 600<<10 {
		t.Errorf("NewHierarchy(PaperConfig()) allocates %d bytes, want <= %d", per, 600<<10)
	}
}

// BenchmarkHierarchyAccess times each platform's hierarchy on a mixed
// strided and random stream over a working set four times its L2, so
// both levels hit and miss.
func BenchmarkHierarchyAccess(b *testing.B) {
	for _, p := range platform.All() {
		hc := p.Pipeline.Cache
		b.Run(p.Name, func(b *testing.B) {
			addrs, stores := mixedStream(rand.New(rand.NewSource(1)), hc.L2.Size, 1<<16)
			h := cache.NewHierarchy(hc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & (len(addrs) - 1)
				h.Access(addrs[j], stores[j])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
		})
	}
}
