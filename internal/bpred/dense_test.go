package bpred

import (
	"math/rand"
	"reflect"
	"testing"
)

// branchStream generates a correlated random branch trace over nPCs
// static branches: loop-like branches mostly taken, data-dependent
// ones alternating, so both predictor components get exercised.
func branchStream(n, nPCs int, seed int64) ([]int32, []bool) {
	r := rand.New(rand.NewSource(seed))
	pcs := make([]int32, n)
	taken := make([]bool, n)
	for i := range pcs {
		pc := int32(r.Intn(nPCs))
		pcs[i] = pc
		switch pc % 3 {
		case 0:
			taken[i] = r.Intn(10) != 0 // loop back-edge
		case 1:
			taken[i] = i%2 == 0 // alternating
		default:
			taken[i] = r.Intn(2) == 0 // noise
		}
	}
	return pcs, taken
}

// TestDenseShardMatchesTracker pins the exactness argument in the
// DenseShard doc comment: partition the PCs across shards, feed every
// shard the full branch stream (Observe when owned, TrainGlobal when
// not), and require the merged statistics to equal a serial
// Tracker(NewPaperHybrid) byte-for-byte.
func TestDenseShardMatchesTracker(t *testing.T) {
	for _, nShards := range []int{1, 2, 4, 7} {
		pcs, taken := branchStream(20000, 97, int64(nShards))

		ref := NewTracker(NewPaperHybrid())
		for i, pc := range pcs {
			ref.Observe(pc, taken[i])
		}

		shards := make([]*DenseShard, nShards)
		for s := range shards {
			shards[s] = NewPaperDenseShard()
		}
		for i, pc := range pcs {
			owner := int(pc) % nShards
			for s, sh := range shards {
				if s == owner {
					sh.Observe(pc, taken[i])
				} else {
					sh.TrainGlobal(pc, taken[i])
				}
			}
		}

		per := make(map[int32]BranchStats)
		var total BranchStats
		for _, sh := range shards {
			sh.MergeInto(per, &total)
		}
		if total != ref.Total() {
			t.Fatalf("%d shards: total %+v, want %+v", nShards, total, ref.Total())
		}
		if !reflect.DeepEqual(per, ref.PerBranch()) {
			t.Fatalf("%d shards: per-branch tables diverge", nShards)
		}
		if pb := shards[0].PerBranch(); nShards > 1 && len(pb) >= len(per) {
			t.Fatalf("shard 0 owns %d branches of %d total — partition not applied", len(pb), len(per))
		}
	}
}

// TestDenseMatchesHybrid pins a shard that owns every PC to
// NewPaperHybrid prediction for prediction: for an identical branch
// stream, every Observe must report exactly the mispredict the
// map-based hybrid would. The stream mixes strongly biased,
// pattern-following, and noisy branches across a dense PC range plus
// sparse high PCs (exercising the slice growth path), driven by a
// fixed-seed xorshift so the test is deterministic.
func TestDenseMatchesHybrid(t *testing.T) {
	d := NewPaperDenseShard()
	h := NewPaperHybrid()

	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	misses := 0
	const events = 200_000
	for i := 0; i < events; i++ {
		r := next()
		pc := int32(r % 211)
		if r&0xff == 0 {
			// Occasional sparse high index: the shard must grow its
			// slice without disturbing existing state.
			pc = int32(5000 + r%37)
		}
		var taken bool
		switch pc % 3 {
		case 0: // strongly biased taken
			taken = (r>>16)&7 != 0
		case 1: // short repeating pattern (local history learns this)
			taken = i%5 < 2
		default: // noisy
			taken = (r>>24)&1 == 0
		}

		wantMiss := h.Predict(pc) != taken
		h.Update(pc, taken)
		gotMiss := d.Observe(pc, taken)
		if gotMiss != wantMiss {
			t.Fatalf("event %d (pc=%d taken=%v): dense miss=%v, hybrid miss=%v",
				i, pc, taken, gotMiss, wantMiss)
		}
		if wantMiss {
			misses++
		}
	}
	// Sanity: the stream must actually exercise both outcomes.
	if misses == 0 || misses == events {
		t.Fatalf("degenerate stream: %d/%d mispredicts", misses, events)
	}
}

// TestDenseShardResetMatchesNew is the reset-versus-new differential:
// shards warmed on one branch stream (owning some PCs, training the
// global component on the rest) and then Reset must replay a second
// stream exactly as shards fresh from NewPaperDenseShard do — every
// Observe's mispredict outcome, the per-branch tables and the totals.
// The second stream reaches PCs beyond the first's, so reset branches
// with kept pattern tables and branches new to the shard both appear.
func TestDenseShardResetMatchesNew(t *testing.T) {
	for _, nShards := range []int{1, 3} {
		warmPCs, warmTaken := branchStream(20000, 97, 11)
		pcs, taken := branchStream(20000, 131, 12)
		reset := make([]*DenseShard, nShards)
		fresh := make([]*DenseShard, nShards)
		for s := range reset {
			reset[s] = NewPaperDenseShard()
			fresh[s] = NewPaperDenseShard()
		}
		feed := func(sh *DenseShard, s int, pc int32, tk bool) bool {
			if int(pc)%nShards == s {
				return sh.Observe(pc, tk)
			}
			sh.TrainGlobal(pc, tk)
			return false
		}
		for i, pc := range warmPCs {
			for s, sh := range reset {
				feed(sh, s, pc, warmTaken[i])
			}
		}
		for _, sh := range reset {
			sh.Reset()
		}
		for i, pc := range pcs {
			for s := range reset {
				if got, want := feed(reset[s], s, pc, taken[i]), feed(fresh[s], s, pc, taken[i]); got != want {
					t.Fatalf("%d shards: branch %d (pc %d) on shard %d: reset shard mispredict=%v, new shard %v", nShards, i, pc, s, got, want)
				}
			}
		}
		for s := range reset {
			if reset[s].Total() != fresh[s].Total() {
				t.Fatalf("%d shards: shard %d total %+v, want %+v", nShards, s, reset[s].Total(), fresh[s].Total())
			}
			if !reflect.DeepEqual(reset[s].PerBranch(), fresh[s].PerBranch()) {
				t.Fatalf("%d shards: shard %d per-branch table differs from a new shard's", nShards, s)
			}
		}
	}
}
