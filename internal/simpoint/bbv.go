package simpoint

// Interval is one fixed-size slice of the committed stream with its
// phase signature: the interval's per-instruction execution counts,
// L1-normalized and randomly projected down to DefaultDims dimensions.
type Interval struct {
	Index int
	Start uint64 // sequence number of the first event
	End   uint64 // one past the last event
	Vec   []float64
}

// Events returns the interval's event count.
func (iv Interval) Events() uint64 { return iv.End - iv.Start }

// signTable is the projection of a program's PCs: row pc holds, for
// each dimension, the sum of the ±1 signs of every PC in [0, pc), so a
// straight-line run [pc, pc+n) projects to row pc+n minus row pc.
type signTable [][DefaultDims]int32

// newSignTable builds the sign table of a program of n instructions.
func newSignTable(n int) signTable {
	s := make(signTable, n+1)
	for pc := 0; pc < n; pc++ {
		for d := range DefaultDims {
			s[pc+1][d] = s[pc][d] + sign(pc, d)
		}
	}
	return s
}

// sign is pc's deterministic ±1 projection sign in dimension d. One
// extra mix per dimension keeps the signs independent.
func sign(pc, d int) int32 {
	h := mix64(DefaultSeed ^ (uint64(pc)+1)*0x9E3779B97F4A7C15)
	if mix64(h^uint64(d)*0xC2B2AE3D27D4EB4F)&1 == 1 {
		return 1
	}
	return -1
}

// collector accumulates interval phase signatures. It is fed
// straight-line PC runs from a trace scan and cuts interval edges
// itself, so runs may straddle them. A collector observes one
// contiguous sequence range; parallel scans give each worker its own
// collector over an interval-aligned range and concatenate the
// results.
//
// The signature is the classic sparse random projection of the
// interval's count vector: each PC contributes its execution count
// times its sign per dimension. Every PC of a basic block runs as often
// as the block, so this carries the basic-block vector's information
// (Sherwood et al.) without a block map. The sums are exact integers,
// so the order runs arrive in cannot change a vector.
type collector struct {
	cfg   Config
	signs signTable
	acc   [DefaultDims]int64 // projected counts of the interval being filled
	start uint64             // start seq of the interval being filled
	end   uint64             // one past the last event observed
	next  uint64             // seq of the next interval edge
	out   []Interval
}

// newCollectorAt creates a collector whose first event has sequence
// number start, which must lie on an interval edge. The sign table is
// shared read-only, so parallel workers reuse one.
func newCollectorAt(signs signTable, cfg Config, start uint64) *collector {
	cfg = cfg.WithDefaults()
	return &collector{cfg: cfg, signs: signs, start: start, end: start, next: start + cfg.IntervalSize}
}

// observe counts rep back-to-back executions of the straight-line run
// of n events whose PCs are pc, pc+1, ..., pc+n-1: the token
// trace.IndexedReader.ScanRunTokens emits. Whole repetitions that fit
// in the current interval are added in bulk, so a loop that spins
// millions of times costs one add per interval; only a repetition
// that straddles an interval edge is split there.
func (c *collector) observe(pc, n int32, rep int64) {
	for rep > 0 {
		if whole := min(int64((c.next-c.end)/uint64(n)), rep); whole > 0 {
			c.add(pc, n, whole)
			rep -= whole
			continue
		}
		// The room left is under n events, so it fits an int32.
		for p, left := pc, n; left > 0; {
			take := min(left, int32(c.next-c.end))
			c.add(p, take, 1)
			p += take
			left -= take
		}
		rep--
	}
}

// add counts rep executions of the run (pc, n), which must fit in the
// current interval, and cuts the interval if they fill it.
func (c *collector) add(pc, n int32, rep int64) {
	lo, hi := &c.signs[pc], &c.signs[pc+n]
	for d := range c.acc {
		c.acc[d] += rep * int64(hi[d]-lo[d])
	}
	c.end += uint64(rep) * uint64(n)
	if c.end == c.next {
		c.cut()
	}
}

// finish closes the trailing partial interval, if any, and returns
// every interval observed, in order.
func (c *collector) finish() []Interval {
	if c.end > c.start {
		c.cut()
	}
	return c.out
}

// cut closes the interval [start, end) and opens the next one. Each
// dimension is divided by the interval length: the L1 normalization
// that makes a short tail interval comparable to full ones.
func (c *collector) cut() {
	events := float64(c.end - c.start)
	vec := make([]float64, DefaultDims)
	for d, a := range c.acc {
		vec[d] = float64(a) / events
	}
	c.acc = [DefaultDims]int64{}
	c.out = append(c.out, Interval{Index: int(c.start / c.cfg.IntervalSize), Start: c.start, End: c.end, Vec: vec})
	c.start = c.end
	c.next = c.end + c.cfg.IntervalSize
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
