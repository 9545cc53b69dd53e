package bpred

// DenseShard replays the conditional-branch column for one partition
// of static branch PCs, with update rules identical to Hybrid wrapped
// in a Tracker but per-branch state held in PC-indexed slices instead
// of maps.
//
// Sharding is exact because a Hybrid observation touches two kinds of
// state: per-static-branch state (local history, pattern table, choice
// counter, statistics), read and written only by that branch's PC, and
// global state (the gshare table and the global history register),
// advanced by every conditional branch in commit order. A shard that
// sees ALL conditional branches in order — calling Observe for the PCs
// it owns and TrainGlobal for the rest — evolves the global state
// exactly as the serial predictor does, so its owned branches predict,
// train, and count identically to the fused single-lane replay.
// Unioning the per-branch tables of shards with disjoint PC sets (and
// summing their totals) therefore reproduces the serial Tracker
// byte-for-byte.
type DenseShard struct {
	lmask uint64
	gmask uint64
	ghist uint64

	gshare   []uint8
	branches []denseBranch
	total    BranchStats
	seen     int // owned branches with allocated state, sizes PerBranch
}

// denseBranch is one owned static branch's local predictor plus its
// statistics. A branch that is not live has not executed since
// NewDenseShard or the last Reset, matching the lazily-created map
// entries of Hybrid; its pattern table may still be allocated, kept
// across a Reset.
type denseBranch struct {
	hist    uint64
	pattern []uint8
	choice  uint8 // 0,1 favor global; 2,3 favor local
	live    bool
	stats   BranchStats
}

// NewDenseShard builds a shard with the same configuration clamping as
// NewHybrid, so shards and the reference predictor always agree on
// table geometry.
func NewDenseShard(cfg HybridConfig) *DenseShard {
	if cfg.LocalHistoryBits == 0 || cfg.LocalHistoryBits > 16 {
		cfg.LocalHistoryBits = 10
	}
	if cfg.GlobalHistoryBits == 0 || cfg.GlobalHistoryBits > 24 {
		cfg.GlobalHistoryBits = 12
	}
	return &DenseShard{
		lmask:  (1 << cfg.LocalHistoryBits) - 1,
		gmask:  (1 << cfg.GlobalHistoryBits) - 1,
		gshare: make([]uint8, 1<<cfg.GlobalHistoryBits),
	}
}

// NewPaperDenseShard returns a shard in the paper-reproduction
// configuration (the DefaultHybridConfig geometry).
func NewPaperDenseShard() *DenseShard { return NewDenseShard(DefaultHybridConfig()) }

// Observe processes an owned conditional branch: predict, train both
// components and the choice counter, advance histories, and record
// statistics — the Tracker.Observe/Hybrid.Update sequence. It returns
// true when the branch was mispredicted, for callers joining outcomes
// with other per-branch columns.
func (d *DenseShard) Observe(pc int32, taken bool) bool {
	i := int(pc)
	if i >= len(d.branches) {
		grown := make([]denseBranch, i+i/2+16)
		copy(grown, d.branches)
		d.branches = grown
	}
	b := &d.branches[i]
	if !b.live {
		if b.pattern == nil {
			b.pattern = make([]uint8, d.lmask+1)
		}
		for j := range b.pattern {
			b.pattern[j] = 2 // weakly taken
		}
		b.choice = 2 // weakly favor local
		b.live = true
		d.seen++
	}
	li := b.hist & d.lmask
	gi := (uint64(uint32(pc)) ^ d.ghist) & d.gmask
	localPred := b.pattern[li] >= 2
	globalPred := d.gshare[gi] >= 2
	pred := globalPred
	if b.choice >= 2 {
		pred = localPred
	}

	// Train the choice counter toward whichever component was right
	// when they disagree.
	if localPred != globalPred {
		b.choice = trainCounter(b.choice, localPred == taken)
	}
	b.pattern[li] = trainCounter(b.pattern[li], taken)
	d.gshare[gi] = trainCounter(d.gshare[gi], taken)

	b.hist = (b.hist << 1) | b2u(taken)
	d.ghist = (d.ghist << 1) | b2u(taken)

	b.stats.Executed++
	d.total.Executed++
	if taken {
		b.stats.Taken++
		d.total.Taken++
	}
	if pred != taken {
		b.stats.Mispredicts++
		d.total.Mispredicts++
		return true
	}
	return false
}

// TrainGlobal processes a conditional branch owned by another shard:
// only the global component advances — gshare trains at the index the
// serial predictor would use, and the history register shifts. The
// branch's local state lives in its owning shard.
func (d *DenseShard) TrainGlobal(pc int32, taken bool) {
	gi := (uint64(uint32(pc)) ^ d.ghist) & d.gmask
	d.gshare[gi] = trainCounter(d.gshare[gi], taken)
	d.ghist = (d.ghist << 1) | b2u(taken)
}

// Reset returns the shard to the state NewDenseShard gives: empty
// global history and gshare table, no branch executed, zero
// statistics. It keeps the branch slice and every pattern table, which
// the next first execution of a branch refills.
func (d *DenseShard) Reset() {
	d.ghist = 0
	clear(d.gshare)
	for i := range d.branches {
		b := &d.branches[i]
		*b = denseBranch{pattern: b.pattern}
	}
	d.total = BranchStats{}
	d.seen = 0
}

// Total returns the shard's aggregate statistics over owned branches.
func (d *DenseShard) Total() BranchStats { return d.total }

// PerBranch returns the shard's per-branch statistics table.
func (d *DenseShard) PerBranch() map[int32]BranchStats {
	out := make(map[int32]BranchStats, d.seen)
	for pc := range d.branches {
		if d.branches[pc].live {
			out[int32(pc)] = d.branches[pc].stats
		}
	}
	return out
}

// MergeInto unions the shard's per-branch statistics into per and adds
// its totals into total. Shards own disjoint PC sets, so union never
// collides; callers merging anyway (e.g. a serial shard reused across
// trace segments) get summed entries.
func (d *DenseShard) MergeInto(per map[int32]BranchStats, total *BranchStats) {
	for pc := range d.branches {
		b := &d.branches[pc]
		if !b.live {
			continue
		}
		s := per[int32(pc)]
		s.Executed += b.stats.Executed
		s.Mispredicts += b.stats.Mispredicts
		s.Taken += b.stats.Taken
		per[int32(pc)] = s
	}
	total.Executed += d.total.Executed
	total.Mispredicts += d.total.Mispredicts
	total.Taken += d.total.Taken
}

// trainCounter advances a saturating 2-bit counter.
func trainCounter(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}
