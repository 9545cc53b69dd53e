package simpoint

import (
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// Interval is one fixed-size slice of the committed stream with its
// phase signature: the basic-block vector, L1-normalized and randomly
// projected down to Config.Dims dimensions.
type Interval struct {
	Index int
	Start uint64 // sequence number of the first event
	End   uint64 // one past the last event
	Vec   []float64
}

// Events returns the interval's event count.
func (iv Interval) Events() uint64 { return iv.End - iv.Start }

// Collector accumulates basic-block vectors per interval. It is a
// sim.BatchObserver, so the same collector rides a live Machine
// (AddBatchObserver) or a trace decode loop; interval edges are cut by
// a sim.IntervalSplitter so slabs never straddle a boundary. A
// collector observes one contiguous sequence range; parallel scans
// give each worker its own collector over an interval-aligned range
// and concatenate the results.
type Collector struct {
	cfg     Config
	blocks  *Blocks
	split   *sim.IntervalSplitter
	counts  []uint64
	touched []int32
	start   uint64 // start seq of the interval being filled
	end     uint64 // one past the last event observed
	out     []Interval
	runNext uint64 // run mode: seq of the next interval edge
	runMode bool   // fed by ObserveRun rather than the splitter
}

// NewCollector creates a collector over prog starting at sequence 0.
func NewCollector(prog *isa.Program, cfg Config) *Collector {
	return NewCollectorAt(prog, BlockMap(prog), cfg, 0)
}

// NewCollectorAt creates a collector whose first event has sequence
// number start, which must lie on an interval edge. The block map is
// shared read-only, so parallel workers reuse one.
func NewCollectorAt(prog *isa.Program, blocks *Blocks, cfg Config, start uint64) *Collector {
	cfg = cfg.WithDefaults()
	c := &Collector{
		cfg:    cfg,
		blocks: blocks,
		counts: make([]uint64, blocks.NumBlocks()),
		start:  start,
		end:    start,
	}
	c.split = sim.NewIntervalSplitter(cfg.IntervalSize, start,
		sim.BatchObserverFunc(c.observe), c.boundary)
	c.runNext = start + cfg.IntervalSize
	return c
}

// ObserveBatch implements sim.BatchObserver.
func (c *Collector) ObserveBatch(evs []sim.Event) { c.split.ObserveBatch(evs) }

// ObserveRun counts a straight-line run: n events whose PCs are pc,
// pc+1, ..., pc+n-1 (one repetition of a trace.IndexedReader.ScanRunTokens
// callback).
// Attribution happens per block crossed rather than per event, and the
// collector cuts interval edges itself, so runs may straddle them.
// A collector is fed either runs or batches, never both.
func (c *Collector) ObserveRun(pc, n int32) {
	c.runMode = true
	for n > 0 {
		take := n
		if room := c.runNext - c.end; uint64(take) > room {
			take = int32(room)
		}
		c.countRun(pc, take)
		c.end += uint64(take)
		pc += take
		n -= take
		if c.end == c.runNext {
			c.boundary(int(c.start/c.cfg.IntervalSize), c.end)
			c.runNext += c.cfg.IntervalSize
		}
	}
}

// ObserveRunRepeat counts rep back-to-back executions of the run
// (pc, n), the form trace.IndexedReader.ScanRunTokens emits. Repetitions that fit entirely inside the current interval
// are counted in bulk — one block walk scaled by the repeat count —
// so a loop that spins millions of times inside one interval costs
// one pass over its blocks, not one per iteration.
func (c *Collector) ObserveRunRepeat(pc, n int32, rep int64) {
	c.runMode = true
	for rep > 0 {
		room := c.runNext - c.end
		if whole := int64(room / uint64(n)); whole > 1 {
			if whole > rep {
				whole = rep
			}
			c.countRunScaled(pc, n, uint64(whole))
			c.end += uint64(whole) * uint64(n)
			rep -= whole
			if c.end == c.runNext {
				c.boundary(int(c.start/c.cfg.IntervalSize), c.end)
				c.runNext += c.cfg.IntervalSize
			}
			continue
		}
		// The next repetition straddles (or exactly fills) the interval
		// edge: take the split path.
		c.ObserveRun(pc, n)
		rep--
	}
}

// countRun splits a straight-line run at block boundaries: one lookup
// and one add per block executed, however long the block is.
func (c *Collector) countRun(pc, n int32) { c.countRunScaled(pc, n, 1) }

// countRunScaled is countRun with every block's contribution
// multiplied by times.
func (c *Collector) countRunScaled(pc, n int32, times uint64) {
	for n > 0 {
		b := c.blocks.Of(pc)
		take := c.blocks.NextLeader(pc) - pc
		if take > n {
			take = n
		}
		if c.counts[b] == 0 {
			c.touched = append(c.touched, b)
		}
		c.counts[b] += uint64(take) * times
		pc += take
		n -= take
	}
}

// Finish closes the trailing partial interval, if any, and returns
// every interval observed, in order.
func (c *Collector) Finish() []Interval {
	if c.runMode {
		if c.end > c.start {
			c.boundary(int(c.start/c.cfg.IntervalSize), c.end)
		}
		return c.out
	}
	c.split.Flush(c.end)
	return c.out
}

func (c *Collector) observe(evs []sim.Event) {
	for i := range evs {
		b := c.blocks.Of(evs[i].PC)
		if c.counts[b] == 0 {
			c.touched = append(c.touched, b)
		}
		c.counts[b]++
	}
	if len(evs) > 0 {
		c.end = evs[len(evs)-1].Seq + 1
	}
}

func (c *Collector) boundary(index int, end uint64) {
	iv := Interval{Index: index, Start: c.start, End: end, Vec: c.project(end - c.start)}
	c.out = append(c.out, iv)
	c.start = end
	for _, b := range c.touched {
		c.counts[b] = 0
	}
	c.touched = c.touched[:0]
}

// project folds the current block counts into a Dims-dimensional
// vector: each block contributes its execution frequency (count over
// interval length — the L1 normalization that makes a short tail
// interval comparable to full ones) times a deterministic ±1 sign per
// dimension. This is the classic sparse random projection; distances
// between projected vectors approximate BBV distances well enough for
// clustering at a tiny fraction of the dimensionality.
func (c *Collector) project(events uint64) []float64 {
	vec := make([]float64, c.cfg.Dims)
	if events == 0 {
		return vec
	}
	inv := 1 / float64(events)
	for _, b := range c.touched {
		f := float64(c.counts[b]) * inv
		h := mix64(c.cfg.Seed ^ (uint64(b)+1)*0x9E3779B97F4A7C15)
		for d := range vec {
			// One extra mix per dimension keeps the signs independent.
			if mix64(h^uint64(d)*0xC2B2AE3D27D4EB4F)&1 == 1 {
				vec[d] += f
			} else {
				vec[d] -= f
			}
		}
	}
	return vec
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijective
// hash used for the deterministic projection signs and the clustering
// RNG.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
