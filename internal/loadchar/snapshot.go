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

// Snapshot is an Analysis's report state in portable, serializable
// form: every counter and table the report methods read, and nothing
// of the transient engine state (predictor tables, cache contents,
// register dependence state). An Analysis holds its report state as a
// Snapshot and its report methods read it, so a snapshot restored
// with FromSnapshot renders byte-identical reports; it cannot observe
// further events. Append and DecodeSnapshot are its binary form.
type Snapshot struct {
	// Instruction mix. LoadCounts is the dynamic execution count of
	// each static load, indexed by PC over the whole program.
	ClassCounts [isa.NumClasses]uint64
	FPCount     uint64
	FPLoads     uint64
	Total       uint64
	LoadCounts  []uint64

	// Cache hierarchy, always cache.PaperConfig (AMAT reads its
	// latencies). L1Miss is each static load's L1 miss count, indexed
	// by PC.
	L1Stats cache.Stats
	L2Stats cache.Stats
	L1Miss  []uint64

	// Branch predictor.
	Branches    map[int32]bpred.BranchStats
	BranchTotal bpred.BranchStats

	// Load-to-branch dependence chains. ToBranch counts, per load PC
	// (indexed by PC), dynamic instances feeding a conditional branch;
	// FedBranch counts, per load PC and branch PC, how often the load
	// fed the branch.
	ToBranch      []uint64
	FedBranch     map[int32]map[int32]uint64
	FedBranchExec uint64
	FedBranchMiss uint64

	// Branch-to-load sequences: per load PC and branch PC, how often
	// the load (with a tight consumer) executed right after the branch.
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

// perLoad lists the dense per-load tables, each one entry per program
// instruction.
func (s *Snapshot) perLoad() [3][]uint64 {
	return [3][]uint64{s.LoadCounts, s.L1Miss, s.ToBranch}
}

// sameShape reports whether s and o have per-load tables of equal
// lengths, as two snapshots of one program do.
func (s *Snapshot) sameShape(o *Snapshot) error {
	ts, to := s.perLoad(), o.perLoad()
	for i := range ts {
		if len(ts[i]) != len(to[i]) {
			return fmt.Errorf("loadchar: snapshots of different programs (per-load tables of %d and %d entries)", len(ts[i]), len(to[i]))
		}
	}
	return nil
}

func branchWords(b *bpred.BranchStats) [3]*uint64 {
	return [3]*uint64{&b.Executed, &b.Mispredicts, &b.Taken}
}

// clone returns a copy of s that shares no storage with it.
func (s *Snapshot) clone() *Snapshot {
	c := *s
	c.LoadCounts = slices.Clone(s.LoadCounts)
	c.L1Miss = slices.Clone(s.L1Miss)
	c.ToBranch = slices.Clone(s.ToBranch)
	c.Branches = maps.Clone(s.Branches)
	c.FedBranch = copyNested(s.FedBranch)
	c.AfterBranch = copyNested(s.AfterBranch)
	return &c
}

func copyNested(src map[int32]map[int32]uint64) map[int32]map[int32]uint64 {
	out := make(map[int32]map[int32]uint64, len(src))
	for k, inner := range src {
		out[k] = maps.Clone(inner)
	}
	return out
}

// Snapshot returns a copy of the analysis's report state. The analysis
// can keep observing afterwards; the snapshot is an independent copy.
func (a *Analysis) Snapshot() *Snapshot {
	a.sync()
	return a.rep.clone()
}

// Scale multiplies every count in the snapshot by w, in place. Every
// snapshot field is a pure sum over observed events, so scaling is
// exact arithmetic: a snapshot of one interval scaled by its cluster
// weight stands for the whole cluster in a merged extrapolation.
func (s *Snapshot) Scale(w uint64) {
	for _, p := range s.words() {
		*p *= w
	}
	for _, t := range s.perLoad() {
		for pc := range t {
			t[pc] *= w
		}
	}
	for pc, b := range s.Branches {
		for _, p := range branchWords(&b) {
			*p *= w
		}
		s.Branches[pc] = b
	}
	scaleNested(s.FedBranch, w)
	scaleNested(s.AfterBranch, w)
}

// Merge adds o's counts into s, in place. Every analysis runs the
// paper's cache and predictor configuration, so any two snapshots of
// one program add up; snapshots whose per-load tables differ in
// length (two programs) are an error, and s is then left unchanged.
func (s *Snapshot) Merge(o *Snapshot) error {
	if err := s.sameShape(o); err != nil {
		return err
	}
	ws, wo := s.words(), o.words()
	for i, p := range ws {
		*p += *wo[i]
	}
	ts, to := s.perLoad(), o.perLoad()
	for i, t := range ts {
		for pc, v := range to[i] {
			t[pc] += v
		}
	}
	for pc, b := range o.Branches {
		cur := s.Branches[pc]
		cw, bw := branchWords(&cur), branchWords(&b)
		for i, p := range cw {
			*p += *bw[i]
		}
		s.Branches[pc] = cur
	}
	addNested(s.FedBranch, o.FedBranch)
	addNested(s.AfterBranch, o.AfterBranch)
	return nil
}

// Sub subtracts o's counts from s, in place. It is only meaningful
// when o is a prefix of s — a snapshot taken earlier on the same
// analysis — in which case every field of o is bounded by s and the
// difference is exactly the counts attributed to the events between
// the two snapshots. Per-load tables of another length or a scalar
// counter of o above s's is an error, and s is then left unchanged.
// Entries that reach zero are dropped from the sparse maps so a
// difference snapshot round-trips like a fresh one.
func (s *Snapshot) Sub(o *Snapshot) error {
	if err := s.sameShape(o); err != nil {
		return err
	}
	ws, wo := s.words(), o.words()
	for i, p := range ws {
		if *p < *wo[i] {
			return fmt.Errorf("loadchar: subtrahend is not a prefix (counter %d)", i)
		}
	}
	for i, p := range ws {
		*p -= *wo[i]
	}
	ts, to := s.perLoad(), o.perLoad()
	for i, t := range ts {
		for pc, v := range to[i] {
			t[pc] -= v
		}
	}
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
	subNested(s.FedBranch, o.FedBranch)
	subNested(s.AfterBranch, o.AfterBranch)
	return nil
}

// DeltaSince turns pre, a snapshot taken earlier on a, into the counts
// a has observed since, in place: pre ends up equal to a.Snapshot()
// after Sub(pre), but no second copy of the report state is made.
// A pre of another program or with a scalar counter above a's is an
// error, and pre is then left unchanged.
func (a *Analysis) DeltaSince(pre *Snapshot) error {
	a.sync()
	cur := &a.rep
	if err := cur.sameShape(pre); err != nil {
		return err
	}
	wc, wp := cur.words(), pre.words()
	for i, p := range wp {
		if *p > *wc[i] {
			return fmt.Errorf("loadchar: snapshot is not a prefix (counter %d)", i)
		}
	}
	for i, p := range wp {
		*p = *wc[i] - *p
	}
	tc, tp := cur.perLoad(), pre.perLoad()
	for i, t := range tp {
		for pc, v := range tc[i] {
			t[pc] = v - t[pc]
		}
	}
	for pc, b := range cur.Branches {
		old, ok := pre.Branches[pc]
		if ok && old == b {
			delete(pre.Branches, pc)
			continue
		}
		ow, bw := branchWords(&old), branchWords(&b)
		for i, p := range ow {
			*p = *bw[i] - *p
		}
		pre.Branches[pc] = old
	}
	deltaNested(pre.FedBranch, cur.FedBranch)
	deltaNested(pre.AfterBranch, cur.AfterBranch)
	return nil
}

// deltaNested turns pre into cur minus pre, dropping the entries (and
// inner tables) of pre that reach zero, as subNested drops them from
// cur.
func deltaNested(pre, cur map[int32]map[int32]uint64) {
	for k, inner := range cur {
		d, had := pre[k]
		if !had {
			pre[k] = maps.Clone(inner)
			continue
		}
		for k2, v := range inner {
			if old, ok := d[k2]; ok && old == v {
				delete(d, k2)
			} else {
				d[k2] = v - old
			}
		}
		if len(d) == 0 {
			delete(pre, k)
		}
	}
}

func scaleNested(m map[int32]map[int32]uint64, w uint64) {
	for _, inner := range m {
		for k, v := range inner {
			inner[k] = v * w
		}
	}
}

func addNested(dst, src map[int32]map[int32]uint64) {
	for k, inner := range src {
		d := dst[k]
		if d == nil {
			d = make(map[int32]uint64, len(inner))
			dst[k] = d
		}
		for k2, v := range inner {
			d[k2] += v
		}
	}
}

func subNested(dst, src map[int32]map[int32]uint64) {
	for k, inner := range src {
		d := dst[k]
		if d == nil {
			continue
		}
		for k2, v := range inner {
			if d[k2] == v {
				delete(d, k2)
			} else {
				d[k2] -= v
			}
		}
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
// the nested tables) an inner table. A dense per-load table is written
// as its non-zero entries. Equal snapshots encode to equal bytes, and
// each body has exactly one snapshot.

// Append appends the snapshot's binary body to b.
func (s *Snapshot) Append(b []byte) []byte {
	for _, p := range s.words() {
		b = binary.LittleEndian.AppendUint64(b, *p)
	}
	b = appendDense(b, s.LoadCounts)
	b = appendDense(b, s.L1Miss)
	b = appendTable(b, s.Branches, func(b []byte, st bpred.BranchStats) []byte {
		for _, p := range branchWords(&st) {
			b = binary.LittleEndian.AppendUint64(b, *p)
		}
		return b
	})
	b = appendDense(b, s.ToBranch)
	b = appendTable(b, s.FedBranch, appendCounts)
	return appendTable(b, s.AfterBranch, appendCounts)
}

// appendDense writes a per-load table as a sparse one: its non-zero
// entries in PC order.
func appendDense(b []byte, t []uint64) []byte {
	n := 0
	for _, v := range t {
		if v != 0 {
			n++
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for pc, v := range t {
		if v != 0 {
			b = binary.LittleEndian.AppendUint32(b, uint32(pc))
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return b
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

// DecodeSnapshot decodes a body Append wrote for a program of nInsts
// instructions, and nothing else: short or trailing bytes, PCs out of
// order, and per-load entries outside the program or of zero value are
// errors. Every table's entry count is checked against the bytes left
// before the table is allocated, so what decoding allocates is bounded
// by len(b) plus the three per-load tables the program sizes.
func DecodeSnapshot(b []byte, nInsts int) (*Snapshot, error) {
	r := snapReader{b: b}
	s := &Snapshot{}
	for _, p := range s.words() {
		*p = r.u64()
	}
	s.LoadCounts = readDense(&r, nInsts)
	s.L1Miss = readDense(&r, nInsts)
	s.Branches = readTable(&r, 24, func(r *snapReader) bpred.BranchStats {
		var st bpred.BranchStats
		for _, p := range branchWords(&st) {
			*p = r.u64()
		}
		return st
	})
	s.ToBranch = readDense(&r, nInsts)
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

func (r *snapReader) fail() {
	r.b, r.bad = nil, true
}

func (r *snapReader) u32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *snapReader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func readCounts(r *snapReader) map[int32]uint64 { return readTable(r, 8, (*snapReader).u64) }

// readCount reads a table's entry count, failing when the bytes left
// cannot hold that many entries of size bytes each.
func (r *snapReader) readCount(size int) uint32 {
	n := r.u32()
	if r.bad || uint64(n)*uint64(size) > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return n
}

// readTable reads one table whose values take at least size bytes
// each.
func readTable[V any](r *snapReader, size int, readValue func(*snapReader) V) map[int32]V {
	n := r.readCount(4 + size)
	if r.bad {
		return nil
	}
	m := make(map[int32]V, n)
	prev := int64(math.MinInt32) - 1
	for range n {
		pc := int64(int32(r.u32()))
		if r.bad || pc <= prev {
			r.fail()
			return nil
		}
		prev = pc
		m[int32(pc)] = readValue(r)
	}
	return m
}

// readDense reads a per-load table into nInsts entries.
func readDense(r *snapReader, nInsts int) []uint64 {
	n := r.readCount(12)
	if r.bad {
		return nil
	}
	t := make([]uint64, nInsts)
	prev := int64(-1)
	for range n {
		pc := int64(int32(r.u32()))
		v := r.u64()
		if r.bad || pc <= prev || pc >= int64(nInsts) || v == 0 {
			r.fail()
			return nil
		}
		prev = pc
		t[pc] = v
	}
	return t
}

// FromSnapshot rebuilds a report-only Analysis over prog from s, whose
// per-load tables must have one entry per instruction of prog. The
// analysis adopts s rather than copying it: the caller hands s over
// and must not touch it again. The report methods are byte-for-byte
// equivalent to the analysis the snapshot was taken from;
// Observe/ObserveBatch panic, because the transient engine state
// needed to continue is not part of a snapshot.
func FromSnapshot(prog *isa.Program, s *Snapshot) (*Analysis, error) {
	n := len(prog.Insts)
	for _, t := range s.perLoad() {
		if len(t) != n {
			return nil, fmt.Errorf("loadchar: snapshot per-load table of %d entries, program has %d instructions", len(t), n)
		}
	}
	return &Analysis{prog: prog, rep: *s}, nil
}
