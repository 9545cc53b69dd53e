package loadchar

import (
	"fmt"

	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
)

// SnapshotVersion guards the serialized snapshot layout; bump it when
// Snapshot's shape or the meaning of any field changes.
const SnapshotVersion = 1

// Snapshot is the portable, serializable form of an Analysis: every
// counter and table the report methods read, and nothing of the
// transient engine state (predictor tables, cache contents, register
// dependence state). A snapshot restored with FromSnapshot renders
// byte-identical reports because the report code paths are shared; it
// cannot observe further events.
type Snapshot struct {
	Version int

	// Instruction mix.
	ClassCounts [isa.NumClasses]uint64
	FPCount     uint64
	FPLoads     uint64
	Total       uint64
	LoadCounts  map[int32]uint64

	// Cache hierarchy. The config travels along because AMAT
	// depends on the configured latencies.
	CacheConfig cache.HierarchyConfig
	L1Stats     cache.Stats
	L2Stats     cache.Stats
	L1Miss      map[int32]uint64

	// Branch predictor.
	Branches    map[int32]bpred.BranchStats
	BranchTotal bpred.BranchStats

	// Load-to-branch dependence chains.
	ToBranch      map[int32]uint64
	FedBranch     map[int32]map[int32]uint64
	FedBranchExec uint64
	FedBranchMiss uint64

	// Branch-to-load sequences.
	AfterBranch map[int32]map[int32]uint64
}

func copyNested(src map[int32]map[int32]uint64) map[int32]map[int32]uint64 {
	out := make(map[int32]map[int32]uint64, len(src))
	for k, inner := range src {
		m := make(map[int32]uint64, len(inner))
		for k2, v := range inner {
			m[k2] = v
		}
		out[k] = m
	}
	return out
}

// denseToMap converts a dense per-PC counter slice to the snapshot's
// sparse map form (the gob wire shape is unchanged from version 1).
func denseToMap(src []uint64) map[int32]uint64 {
	out := make(map[int32]uint64)
	for pc, v := range src {
		if v != 0 {
			out[int32(pc)] = v
		}
	}
	return out
}

// mapToDense rebuilds a dense per-PC counter slice from the snapshot's
// map form, rejecting PCs outside the program.
func mapToDense(src map[int32]uint64, nInsts int) ([]uint64, error) {
	out := make([]uint64, nInsts)
	for pc, v := range src {
		if pc < 0 || int(pc) >= nInsts {
			return nil, fmt.Errorf("loadchar: snapshot PC %d outside program (%d insts)", pc, nInsts)
		}
		out[pc] = v
	}
	return out, nil
}

// Snapshot captures the analysis's report state. The analysis can keep
// observing afterwards; the snapshot is an independent copy.
func (a *Analysis) Snapshot() *Snapshot {
	a.sync()
	return &Snapshot{
		Version:       SnapshotVersion,
		ClassCounts:   a.mix.classCounts,
		FPCount:       a.mix.fpCount,
		FPLoads:       a.mix.fpLoads,
		Total:         a.mix.total,
		LoadCounts:    denseToMap(a.mix.counts),
		CacheConfig:   a.cache.cfg,
		L1Stats:       a.cache.l1,
		L2Stats:       a.cache.l2,
		L1Miss:        denseToMap(a.cache.l1miss),
		Branches:      a.bp.PerBranch(),
		BranchTotal:   a.bp.Total(),
		ToBranch:      denseToMap(a.dep.toBranch),
		FedBranch:     copyNested(a.dep.fedBranch),
		FedBranchExec: a.dep.fedBranchExec,
		FedBranchMiss: a.dep.fedBranchMiss,
		AfterBranch:   copyNested(a.seq.afterBranch),
	}
}

// Scale multiplies every count in the snapshot by w, in place. Every
// snapshot field is a pure sum over observed events, so scaling is
// exact arithmetic: a snapshot of one interval scaled by its cluster
// weight stands for the whole cluster in a merged extrapolation.
// Scale(0) empties the snapshot; the cache configuration is preserved.
func (s *Snapshot) Scale(w uint64) {
	for i := range s.ClassCounts {
		s.ClassCounts[i] *= w
	}
	s.FPCount *= w
	s.FPLoads *= w
	s.Total *= w
	scaleMap(s.LoadCounts, w)
	s.L1Stats = scaleStats(s.L1Stats, w)
	s.L2Stats = scaleStats(s.L2Stats, w)
	scaleMap(s.L1Miss, w)
	for pc, b := range s.Branches {
		s.Branches[pc] = scaleBranch(b, w)
	}
	s.BranchTotal = scaleBranch(s.BranchTotal, w)
	scaleMap(s.ToBranch, w)
	scaleNested(s.FedBranch, w)
	s.FedBranchExec *= w
	s.FedBranchMiss *= w
	scaleNested(s.AfterBranch, w)
}

// Merge adds o's counts into s, in place. Both snapshots must have
// been taken under the same cache configuration (AMAT depends on the
// latencies) and the same version; mismatches are an error rather than
// a silent blend of incomparable counters.
func (s *Snapshot) Merge(o *Snapshot) error {
	if s.Version != o.Version {
		return fmt.Errorf("loadchar: merge snapshot version %d into %d", o.Version, s.Version)
	}
	if s.CacheConfig != o.CacheConfig {
		return fmt.Errorf("loadchar: merge snapshots with different cache configurations")
	}
	for i := range s.ClassCounts {
		s.ClassCounts[i] += o.ClassCounts[i]
	}
	s.FPCount += o.FPCount
	s.FPLoads += o.FPLoads
	s.Total += o.Total
	addMap(s.LoadCounts, o.LoadCounts)
	s.L1Stats = addStats(s.L1Stats, o.L1Stats)
	s.L2Stats = addStats(s.L2Stats, o.L2Stats)
	addMap(s.L1Miss, o.L1Miss)
	for pc, b := range o.Branches {
		cur := s.Branches[pc]
		cur.Executed += b.Executed
		cur.Mispredicts += b.Mispredicts
		cur.Taken += b.Taken
		s.Branches[pc] = cur
	}
	s.BranchTotal.Executed += o.BranchTotal.Executed
	s.BranchTotal.Mispredicts += o.BranchTotal.Mispredicts
	s.BranchTotal.Taken += o.BranchTotal.Taken
	addMap(s.ToBranch, o.ToBranch)
	addNested(s.FedBranch, o.FedBranch)
	s.FedBranchExec += o.FedBranchExec
	s.FedBranchMiss += o.FedBranchMiss
	addNested(s.AfterBranch, o.AfterBranch)
	return nil
}

// Sub subtracts o's counts from s, in place. It is only meaningful
// when o is a prefix of s — a snapshot taken earlier on the same
// analysis — in which case every field of o is bounded by s and the
// difference is exactly the counts attributed to the events between
// the two snapshots. Entries that reach zero are dropped from the
// sparse maps so a difference snapshot round-trips like a fresh one.
func (s *Snapshot) Sub(o *Snapshot) error {
	if s.Version != o.Version {
		return fmt.Errorf("loadchar: subtract snapshot version %d from %d", o.Version, s.Version)
	}
	if s.CacheConfig != o.CacheConfig {
		return fmt.Errorf("loadchar: subtract snapshots with different cache configurations")
	}
	for i := range s.ClassCounts {
		if s.ClassCounts[i] < o.ClassCounts[i] {
			return fmt.Errorf("loadchar: subtrahend is not a prefix (class %d)", i)
		}
		s.ClassCounts[i] -= o.ClassCounts[i]
	}
	s.FPCount -= o.FPCount
	s.FPLoads -= o.FPLoads
	s.Total -= o.Total
	subMap(s.LoadCounts, o.LoadCounts)
	s.L1Stats = subStats(s.L1Stats, o.L1Stats)
	s.L2Stats = subStats(s.L2Stats, o.L2Stats)
	subMap(s.L1Miss, o.L1Miss)
	for pc, b := range o.Branches {
		cur := s.Branches[pc]
		cur.Executed -= b.Executed
		cur.Mispredicts -= b.Mispredicts
		cur.Taken -= b.Taken
		if cur == (bpred.BranchStats{}) {
			delete(s.Branches, pc)
		} else {
			s.Branches[pc] = cur
		}
	}
	s.BranchTotal.Executed -= o.BranchTotal.Executed
	s.BranchTotal.Mispredicts -= o.BranchTotal.Mispredicts
	s.BranchTotal.Taken -= o.BranchTotal.Taken
	subMap(s.ToBranch, o.ToBranch)
	subNested(s.FedBranch, o.FedBranch)
	s.FedBranchExec -= o.FedBranchExec
	s.FedBranchMiss -= o.FedBranchMiss
	subNested(s.AfterBranch, o.AfterBranch)
	return nil
}

func scaleMap(m map[int32]uint64, w uint64) {
	for k, v := range m {
		m[k] = v * w
	}
}

func addMap(dst, src map[int32]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}

func subMap(dst, src map[int32]uint64) {
	for k, v := range src {
		if dst[k] == v {
			delete(dst, k)
		} else {
			dst[k] -= v
		}
	}
}

func scaleNested(m map[int32]map[int32]uint64, w uint64) {
	for _, inner := range m {
		scaleMap(inner, w)
	}
}

func addNested(dst, src map[int32]map[int32]uint64) {
	for k, inner := range src {
		d := dst[k]
		if d == nil {
			d = make(map[int32]uint64, len(inner))
			dst[k] = d
		}
		addMap(d, inner)
	}
}

func subNested(dst, src map[int32]map[int32]uint64) {
	for k, inner := range src {
		d := dst[k]
		if d == nil {
			continue
		}
		subMap(d, inner)
		if len(d) == 0 {
			delete(dst, k)
		}
	}
}

func scaleStats(s cache.Stats, w uint64) cache.Stats {
	return cache.Stats{
		Accesses: s.Accesses * w, LoadHits: s.LoadHits * w,
		LoadMisses: s.LoadMisses * w, StoreHits: s.StoreHits * w,
		StoreMisses: s.StoreMisses * w, Writebacks: s.Writebacks * w,
	}
}

func addStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses: a.Accesses + b.Accesses, LoadHits: a.LoadHits + b.LoadHits,
		LoadMisses: a.LoadMisses + b.LoadMisses, StoreHits: a.StoreHits + b.StoreHits,
		StoreMisses: a.StoreMisses + b.StoreMisses, Writebacks: a.Writebacks + b.Writebacks,
	}
}

func subStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses: a.Accesses - b.Accesses, LoadHits: a.LoadHits - b.LoadHits,
		LoadMisses: a.LoadMisses - b.LoadMisses, StoreHits: a.StoreHits - b.StoreHits,
		StoreMisses: a.StoreMisses - b.StoreMisses, Writebacks: a.Writebacks - b.Writebacks,
	}
}

func scaleBranch(b bpred.BranchStats, w uint64) bpred.BranchStats {
	return bpred.BranchStats{Executed: b.Executed * w, Mispredicts: b.Mispredicts * w, Taken: b.Taken * w}
}

// FromSnapshot rebuilds a report-only Analysis over prog from a
// snapshot. The report methods are byte-for-byte equivalent to the
// analysis the snapshot was taken from; Observe/ObserveBatch panic,
// because the transient engine state needed to continue is not part
// of a snapshot.
func FromSnapshot(prog *isa.Program, s *Snapshot) (*Analysis, error) {
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("loadchar: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	a := &Analysis{prog: prog}
	a.mix.classCounts = s.ClassCounts
	a.mix.fpCount = s.FPCount
	a.mix.fpLoads = s.FPLoads
	a.mix.total = s.Total
	var err error
	if a.mix.counts, err = mapToDense(s.LoadCounts, len(prog.Insts)); err != nil {
		return nil, err
	}
	a.cache = cacheTable{cfg: s.CacheConfig, l1: s.L1Stats, l2: s.L2Stats}
	if a.cache.l1miss, err = mapToDense(s.L1Miss, len(prog.Insts)); err != nil {
		return nil, err
	}
	a.bp = bpred.RestoreTracker(s.Branches, s.BranchTotal)
	if a.dep.toBranch, err = mapToDense(s.ToBranch, len(prog.Insts)); err != nil {
		return nil, err
	}
	a.dep.fedBranch = copyNested(s.FedBranch)
	a.dep.fedBranchExec = s.FedBranchExec
	a.dep.fedBranchMiss = s.FedBranchMiss
	a.seq.afterBranch = copyNested(s.AfterBranch)
	return a, nil
}
