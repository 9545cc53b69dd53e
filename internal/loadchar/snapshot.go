package loadchar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
)

// Snapshot is the portable, serializable form of an Analysis: every
// counter and table the report methods read, and nothing of the
// transient engine state (predictor tables, cache contents, register
// dependence state). A snapshot restored with FromSnapshot renders
// byte-identical reports because the report code paths are shared; it
// cannot observe further events. Append and DecodeSnapshot are its
// binary form.
type Snapshot struct {
	// Instruction mix.
	ClassCounts [isa.NumClasses]uint64
	FPCount     uint64
	FPLoads     uint64
	Total       uint64
	LoadCounts  map[int32]uint64

	// Cache hierarchy, always cache.PaperConfig (AMAT reads its
	// latencies).
	L1Stats cache.Stats
	L2Stats cache.Stats
	L1Miss  map[int32]uint64

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

// words lists the snapshot's scalar counters in the binary layout's
// order. Append, DecodeSnapshot, Scale, Merge and Sub all walk this
// one list, so a counter added here is carried by every one of them.
func (s *Snapshot) words() []*uint64 {
	var w []*uint64
	for i := range s.ClassCounts {
		w = append(w, &s.ClassCounts[i])
	}
	w = append(w, &s.FPCount, &s.FPLoads, &s.Total)
	for _, st := range []*cache.Stats{&s.L1Stats, &s.L2Stats} {
		w = append(w, &st.Accesses, &st.LoadHits, &st.LoadMisses, &st.StoreHits, &st.StoreMisses, &st.Writebacks)
	}
	bw := branchWords(&s.BranchTotal)
	w = append(w, bw[:]...)
	return append(w, &s.FedBranchExec, &s.FedBranchMiss)
}

func branchWords(b *bpred.BranchStats) [3]*uint64 {
	return [3]*uint64{&b.Executed, &b.Mispredicts, &b.Taken}
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
// sparse map form.
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
		ClassCounts:   a.mix.classCounts,
		FPCount:       a.mix.fpCount,
		FPLoads:       a.mix.fpLoads,
		Total:         a.mix.total,
		LoadCounts:    denseToMap(a.mix.counts),
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
func (s *Snapshot) Scale(w uint64) {
	for _, p := range s.words() {
		*p *= w
	}
	scaleMap(s.LoadCounts, w)
	scaleMap(s.L1Miss, w)
	for pc, b := range s.Branches {
		for _, p := range branchWords(&b) {
			*p *= w
		}
		s.Branches[pc] = b
	}
	scaleMap(s.ToBranch, w)
	scaleNested(s.FedBranch, w)
	scaleNested(s.AfterBranch, w)
}

// Merge adds o's counts into s, in place. Every analysis runs the
// paper's cache and predictor configuration, so any two snapshots add
// up; the error is always nil.
func (s *Snapshot) Merge(o *Snapshot) error {
	ws, wo := s.words(), o.words()
	for i, p := range ws {
		*p += *wo[i]
	}
	addMap(s.LoadCounts, o.LoadCounts)
	addMap(s.L1Miss, o.L1Miss)
	for pc, b := range o.Branches {
		cur := s.Branches[pc]
		cw, bw := branchWords(&cur), branchWords(&b)
		for i, p := range cw {
			*p += *bw[i]
		}
		s.Branches[pc] = cur
	}
	addMap(s.ToBranch, o.ToBranch)
	addNested(s.FedBranch, o.FedBranch)
	addNested(s.AfterBranch, o.AfterBranch)
	return nil
}

// Sub subtracts o's counts from s, in place. It is only meaningful
// when o is a prefix of s — a snapshot taken earlier on the same
// analysis — in which case every field of o is bounded by s and the
// difference is exactly the counts attributed to the events between
// the two snapshots. A scalar counter of o above s's is an error, and
// s is then left unchanged. Entries that reach zero are dropped from
// the sparse maps so a difference snapshot round-trips like a fresh
// one.
func (s *Snapshot) Sub(o *Snapshot) error {
	ws, wo := s.words(), o.words()
	for i, p := range ws {
		if *p < *wo[i] {
			return fmt.Errorf("loadchar: subtrahend is not a prefix (counter %d)", i)
		}
	}
	for i, p := range ws {
		*p -= *wo[i]
	}
	subMap(s.LoadCounts, o.LoadCounts)
	subMap(s.L1Miss, o.L1Miss)
	for pc, b := range o.Branches {
		cur := s.Branches[pc]
		cw, bw := branchWords(&cur), branchWords(&b)
		for i, p := range cw {
			*p -= *bw[i]
		}
		if cur == (bpred.BranchStats{}) {
			delete(s.Branches, pc)
		} else {
			s.Branches[pc] = cur
		}
	}
	subMap(s.ToBranch, o.ToBranch)
	subNested(s.FedBranch, o.FedBranch)
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

// The binary body is little-endian throughout: every counter of words
// as 8 bytes, then the tables LoadCounts, L1Miss, Branches, ToBranch,
// FedBranch and AfterBranch. A table is a 4-byte entry count followed
// by its entries in strictly ascending PC order, each a 4-byte PC and
// its value: an 8-byte counter, a branch's three counters, or (for
// the nested tables) an inner table. Equal snapshots encode to equal
// bytes, and each body has exactly one snapshot.

// Append appends the snapshot's binary body to b.
func (s *Snapshot) Append(b []byte) []byte {
	for _, p := range s.words() {
		b = binary.LittleEndian.AppendUint64(b, *p)
	}
	b = appendTable(b, s.LoadCounts, binary.LittleEndian.AppendUint64)
	b = appendTable(b, s.L1Miss, binary.LittleEndian.AppendUint64)
	b = appendTable(b, s.Branches, func(b []byte, st bpred.BranchStats) []byte {
		for _, p := range branchWords(&st) {
			b = binary.LittleEndian.AppendUint64(b, *p)
		}
		return b
	})
	b = appendTable(b, s.ToBranch, binary.LittleEndian.AppendUint64)
	b = appendTable(b, s.FedBranch, appendCounts)
	return appendTable(b, s.AfterBranch, appendCounts)
}

func appendCounts(b []byte, m map[int32]uint64) []byte {
	return appendTable(b, m, binary.LittleEndian.AppendUint64)
}

func appendTable[V any](b []byte, m map[int32]V, appendValue func([]byte, V) []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m)))
	for _, pc := range slices.Sorted(maps.Keys(m)) {
		b = binary.LittleEndian.AppendUint32(b, uint32(pc))
		b = appendValue(b, m[pc])
	}
	return b
}

// errSnapshotBody rejects a malformed body. It is static so that
// rejecting bytes allocates nothing.
var errSnapshotBody = errors.New("loadchar: malformed snapshot body")

// DecodeSnapshot decodes a body Append wrote, and nothing else: short
// or trailing bytes and PCs out of order are errors. Every table's
// entry count is checked against the bytes left before the table is
// allocated, so what decoding allocates is bounded by len(b).
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	r := snapReader{b: b}
	s := &Snapshot{}
	for _, p := range s.words() {
		*p = r.u64()
	}
	s.LoadCounts = readTable(&r, 8, (*snapReader).u64)
	s.L1Miss = readTable(&r, 8, (*snapReader).u64)
	s.Branches = readTable(&r, 24, func(r *snapReader) bpred.BranchStats {
		var st bpred.BranchStats
		for _, p := range branchWords(&st) {
			*p = r.u64()
		}
		return st
	})
	s.ToBranch = readTable(&r, 8, (*snapReader).u64)
	s.FedBranch = readTable(&r, 4, readCounts)
	s.AfterBranch = readTable(&r, 4, readCounts)
	if r.bad || len(r.b) != 0 {
		return nil, errSnapshotBody
	}
	return s, nil
}

// snapReader consumes a snapshot body. Once bad is set, every read
// yields zero.
type snapReader struct {
	b   []byte
	bad bool
}

func (r *snapReader) u32() uint32 {
	if len(r.b) < 4 {
		r.b, r.bad = nil, true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *snapReader) u64() uint64 {
	if len(r.b) < 8 {
		r.b, r.bad = nil, true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func readCounts(r *snapReader) map[int32]uint64 { return readTable(r, 8, (*snapReader).u64) }

// readTable reads one table whose values take at least size bytes
// each.
func readTable[V any](r *snapReader, size int, readValue func(*snapReader) V) map[int32]V {
	n := r.u32()
	if r.bad || uint64(n)*uint64(4+size) > uint64(len(r.b)) {
		r.b, r.bad = nil, true
		return nil
	}
	m := make(map[int32]V, n)
	prev := int64(math.MinInt32) - 1
	for range n {
		pc := int64(int32(r.u32()))
		if r.bad || pc <= prev {
			r.b, r.bad = nil, true
			return nil
		}
		prev = pc
		m[int32(pc)] = readValue(r)
	}
	return m
}

// FromSnapshot rebuilds a report-only Analysis over prog from a
// snapshot. The report methods are byte-for-byte equivalent to the
// analysis the snapshot was taken from; Observe/ObserveBatch panic,
// because the transient engine state needed to continue is not part
// of a snapshot.
func FromSnapshot(prog *isa.Program, s *Snapshot) (*Analysis, error) {
	a := &Analysis{prog: prog}
	a.mix.classCounts = s.ClassCounts
	a.mix.fpCount = s.FPCount
	a.mix.fpLoads = s.FPLoads
	a.mix.total = s.Total
	var err error
	if a.mix.counts, err = mapToDense(s.LoadCounts, len(prog.Insts)); err != nil {
		return nil, err
	}
	a.cache = cacheTable{l1: s.L1Stats, l2: s.L2Stats}
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
