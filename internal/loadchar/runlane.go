package loadchar

import (
	"encoding/binary"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// The run lane is the spine of the run-characterized replay: it
// consumes the PC-run stream in commit order and drives the dependence
// and sequence state machines — the only two passes whose per-event
// state survives across events. Instead of stepping them per event, it
// memoizes (state, run) → (deltas, next state): both machines are
// oblivious to branch outcomes and addresses (depPass reads only
// PC/Inst; the mispredict join happens in the predictor lane via the
// recorded fed flags; seqPass reads only PC/Inst/Seq with sequence
// numbers entering solely as bounded ages), so identical machine state
// at the start of an identical run yields identical deltas and
// identical next state. Hot runs — the overwhelming majority in loop
// programs — reduce to one hash probe and a handful of counter
// increments.

// nDepRegs is the register-file footprint of the dep/seq machines.
const nDepRegs = isa.NumIntRegs + isa.NumFPRegs

// evalBase is the synthetic sequence number of a memo evaluation's
// first event. It exceeds proximity so seeded ages never underflow.
const evalBase = uint64(proximity) + 2

// A machine state between runs is interned in its canonical sparse
// form (stateKey): behaviorally identical raw states collapse to one
// key, because load-derived register slots are the only dep state that
// matters, and pending loads or branches older than proximity behave
// exactly like absent ones.

// credit is one (load, branch) attribution with its multiplicity
// within a single run evaluation.
type credit struct {
	loadPC   int32
	branchPC int32
	n        uint32
}

// transition is the memoized effect of one run on one starting state.
// Its fed flags and credits live in the engine's arenas: fedMask is
// fedArena[fedOff:] over the run's cond-branch ordinals (meaningful
// only when fedCount != 0), and the credits are
// credits[credOff:credOff+nDep] (dependence) followed by nSeq
// sequence credits.
type transition struct {
	next     uint32 // next state ID
	fedCount uint32 // fed branch instances per execution
	fedOff   uint32
	credOff  uint32
	nDep     uint32
	nSeq     uint32
	occ      uint64 // times this (state, run) pair occurred
}

// runTok is one token of a chunk's run stream as the shard lanes see
// it: the interned run plus its repeat count.
type runTok struct {
	ri  *runInfo
	rep int32
}

// chunkAnn is the run lane's per-chunk annotation for the shard lanes:
// the interned (run, repeat) token of every PC run in the chunk, and
// the fed-flag bitmap over the chunk's conditional-branch ordinals
// (bit i set ⇔ the chunk's i-th dynamic conditional branch consumed a
// load-derived value, joining with the predictor lane's mispredict
// outcomes to produce fedBranchMiss). Immutable once the run lane
// publishes it.
type chunkAnn struct {
	toks []runTok
	fed  []uint64
}

func (a *chunkAnn) fedAt(i int) bool { return a.fed[i>>6]&(1<<(i&63)) != 0 }

// memoTable is an open-addressing hash from (state, pc, n) to
// transition index+1 (0 = empty). Bounded: past maxMemoEntries,
// lookups keep working and misses evaluate without inserting.
type memoTable struct {
	keys []memoKey
	vals []uint32
	used int
}

type memoKey struct {
	state uint32
	pc    int32
	n     int32
}

const maxMemoEntries = 1 << 20

func mixKey(k memoKey) uint64 {
	h := uint64(k.state)*0x9e3779b97f4a7c15 ^
		uint64(uint32(k.pc))*0xc2b2ae3d27d4eb4f ^
		uint64(uint32(k.n))*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

func newMemoTable() *memoTable {
	const initSize = 1 << 10
	return &memoTable{keys: make([]memoKey, initSize), vals: make([]uint32, initSize)}
}

// lookup returns the stored transition index+1, or 0 on miss.
func (m *memoTable) lookup(k memoKey) uint32 {
	mask := uint64(len(m.keys) - 1)
	for i := mixKey(k) & mask; ; i = (i + 1) & mask {
		v := m.vals[i]
		if v == 0 {
			return 0
		}
		if m.keys[i] == k {
			return v
		}
	}
}

// insert stores k → transIdx+1 unless the table is at its entry cap.
func (m *memoTable) insert(k memoKey, val uint32) {
	if m.used >= maxMemoEntries {
		return
	}
	if (m.used+1)*10 > len(m.keys)*7 {
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	for i := mixKey(k) & mask; ; i = (i + 1) & mask {
		if m.vals[i] == 0 {
			m.keys[i] = k
			m.vals[i] = val
			m.used++
			return
		}
	}
}

func (m *memoTable) grow() {
	old := *m
	m.keys = make([]memoKey, len(old.keys)*2)
	m.vals = make([]uint32, len(old.vals)*2)
	mask := uint64(len(m.keys) - 1)
	for i, v := range old.vals {
		if v == 0 {
			continue
		}
		k := old.keys[i]
		for j := mixKey(k) & mask; ; j = (j + 1) & mask {
			if m.vals[j] == 0 {
				m.keys[j] = k
				m.vals[j] = v
				break
			}
		}
	}
}

// runEngine is the run lane's full state: interned runs and machine
// states, the transition memo, and the private eval machines.
type runEngine struct {
	prog *isa.Program

	runs     map[uint64]*runInfo
	stateIDs map[string]uint32
	states   []string // state ID -> canonical key (stateKey)
	scratch  []byte

	memo     *memoTable
	trans    []transition
	fedArena []uint64
	credits  []credit
	cur      uint32 // current state ID; chains across runs and chunks

	// dictRuns maps dictionary run ids to interned runs; dict pins the
	// dictionary the mapping was built against (the shared dictionary
	// only ever grows, so ids stay stable and the sync is an append).
	dictRuns []*runInfo
	dict     *runstream.Dict

	evalDep depPass
	evalSeq seqPass
	evalEvs []sim.Event

	capFed    []uint64
	capBrOrd  int32
	capFedCnt uint32
	capDep    []credit
	capSeq    []credit
}

func newRunEngine(prog *isa.Program) *runEngine {
	e := &runEngine{
		prog:     prog,
		runs:     make(map[uint64]*runInfo),
		stateIDs: make(map[string]uint32),
		memo:     newMemoTable(),
	}
	// The eval machines record through these hooks; their own state is
	// seeded from an interned key before every evaluation.
	e.evalDep.rec = func(branchPC int32, fed bool, srcA, srcB int32) {
		k := e.capBrOrd
		e.capBrOrd++
		if !fed {
			return
		}
		e.capFed[k>>6] |= 1 << (k & 63)
		e.capFedCnt++
		e.addDepCredit(srcA, branchPC)
		if srcB >= 0 && srcB != srcA {
			e.addDepCredit(srcB, branchPC)
		}
	}
	e.evalSeq.rec = func(loadPC, branchPC int32) {
		e.capSeq = addCredit(e.capSeq, loadPC, branchPC)
	}
	// State 0 is the canonical empty state: no load-derived registers,
	// no pending loads, no recent branch.
	e.internState([]byte{0xff, 0xff, 0})
	return e
}

// reset zeroes every occurrence count and returns the engine to state
// 0, keeping the interned runs and states, the memo and its
// transitions, and the dictionary mapping.
func (e *runEngine) reset() {
	for _, ri := range e.runs {
		ri.occ = 0
	}
	for i := range e.trans {
		e.trans[i].occ = 0
	}
	e.cur = 0
}

func (e *runEngine) addDepCredit(loadPC, branchPC int32) {
	e.capDep = addCredit(e.capDep, loadPC, branchPC)
}

// addCredit bumps the matching (load, branch) pair or appends a new
// one; runs are short, so the linear scan beats a map.
func addCredit(cs []credit, loadPC, branchPC int32) []credit {
	for i := range cs {
		if cs[i].loadPC == loadPC && cs[i].branchPC == branchPC {
			cs[i].n++
			return cs
		}
	}
	return append(cs, credit{loadPC: loadPC, branchPC: branchPC, n: 1})
}

// stateKey serializes the eval machines' state as of sequence number
// endSeq (the next run's first event) into its canonical sparse form,
// in the engine's scratch buffer: load-derived registers, pending loads
// still within proximity (with their age), then the last branch if it
// is within proximity. Register indices (< nDepRegs = 128) never
// collide with the 0xff section separators.
func (e *runEngine) stateKey(endSeq uint64) []byte {
	b := e.scratch[:0]
	for i := range e.evalDep.deps {
		d := &e.evalDep.deps[i]
		if d.depth >= 0 {
			b = append(b, byte(i), byte(d.depth))
			b = binary.LittleEndian.AppendUint32(b, uint32(d.srcA))
			b = binary.LittleEndian.AppendUint32(b, uint32(d.srcB))
		}
	}
	b = append(b, 0xff)
	for i := range e.evalSeq.pending {
		pd := &e.evalSeq.pending[i]
		if age := endSeq - pd.seq; pd.active && age <= proximity {
			b = append(b, byte(i), byte(age))
			b = binary.LittleEndian.AppendUint32(b, uint32(pd.loadPC))
			b = binary.LittleEndian.AppendUint32(b, uint32(pd.afterBranch))
		}
	}
	b = append(b, 0xff)
	if age := endSeq - e.evalSeq.lastBranchSeq; e.evalSeq.haveBranch && age <= proximity {
		b = append(b, byte(age))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.evalSeq.lastBranchPC))
	} else {
		b = append(b, 0)
	}
	e.scratch = b
	return b
}

// loadState seeds the eval machines from a canonical key, as of
// sequence number evalBase.
func (e *runEngine) loadState(key string) {
	for i := range e.evalDep.deps {
		e.evalDep.deps[i] = regDep{depth: -1, srcA: -1, srcB: -1}
	}
	e.evalSeq.pending = [nDepRegs]pendingLoad{}
	u32 := func(p int) int32 {
		return int32(uint32(key[p]) | uint32(key[p+1])<<8 | uint32(key[p+2])<<16 | uint32(key[p+3])<<24)
	}
	p := 0
	for ; key[p] != 0xff; p += 10 {
		e.evalDep.deps[key[p]] = regDep{depth: int8(key[p+1]), srcA: u32(p + 2), srcB: u32(p + 6)}
	}
	for p++; key[p] != 0xff; p += 10 {
		e.evalSeq.pending[key[p]] = pendingLoad{
			active: true, loadPC: u32(p + 2), afterBranch: u32(p + 6),
			seq: evalBase - uint64(key[p+1]),
		}
	}
	p++
	age := key[p]
	e.evalSeq.haveBranch = age != 0
	e.evalSeq.lastBranchPC, e.evalSeq.lastBranchSeq = 0, evalBase
	if age != 0 {
		e.evalSeq.lastBranchPC = u32(p + 1)
		e.evalSeq.lastBranchSeq = evalBase - uint64(age)
	}
}

func (e *runEngine) internState(key []byte) uint32 {
	if id, ok := e.stateIDs[string(key)]; ok {
		return id
	}
	k := string(key)
	id := uint32(len(e.states))
	e.states = append(e.states, k)
	e.stateIDs[k] = id
	return id
}

// runFor interns the static characterization of run (pc, n).
func (e *runEngine) runFor(pc, n int32) *runInfo {
	key := uint64(uint32(pc))<<32 | uint64(uint32(n))
	if ri := e.runs[key]; ri != nil {
		return ri
	}
	ri := &runInfo{pc: pc, n: n}
	accumRange(ri, e.prog)
	e.runs[key] = ri
	return ri
}

// eval runs the dep and seq machines over run ri from state stateID,
// capturing deltas via the recording hooks, and returns the index of
// the freshly appended transition.
func (e *runEngine) eval(stateID uint32, ri *runInfo) uint32 {
	e.loadState(e.states[stateID])

	// Synthetic events: only PC/Seq/Inst are read in recording mode
	// (branch outcomes and addresses join in the shard lanes).
	n := int(ri.n)
	if cap(e.evalEvs) < n {
		e.evalEvs = make([]sim.Event, n+n/2+16)
	}
	evs := e.evalEvs[:n]
	for t := 0; t < n; t++ {
		pc := ri.pc + int32(t)
		evs[t] = sim.Event{PC: pc, Seq: evalBase + uint64(t), Inst: &e.prog.Insts[pc]}
	}

	// Reset capture buffers.
	nbrWords := (len(ri.brs) + 63) / 64
	if cap(e.capFed) < nbrWords {
		e.capFed = make([]uint64, nbrWords+4)
	}
	for i := 0; i < nbrWords; i++ {
		e.capFed[i] = 0
	}
	e.capBrOrd = 0
	e.capFedCnt = 0
	e.capDep = e.capDep[:0]
	e.capSeq = e.capSeq[:0]

	e.evalDep.observe(evs)
	e.evalSeq.observe(evs)

	tr := transition{
		next:     e.internState(e.stateKey(evalBase + uint64(n))),
		fedCount: e.capFedCnt,
		credOff:  uint32(len(e.credits)),
		nDep:     uint32(len(e.capDep)),
		nSeq:     uint32(len(e.capSeq)),
	}
	if e.capFedCnt != 0 {
		tr.fedOff = uint32(len(e.fedArena))
		e.fedArena = append(e.fedArena, e.capFed[:nbrWords]...)
	}
	e.credits = append(e.credits, e.capDep...)
	e.credits = append(e.credits, e.capSeq...)
	e.trans = append(e.trans, tr)
	return uint32(len(e.trans) - 1)
}

// orBitsAt ORs the low nbits of src into dst starting at bit offset
// off. dst must already span off+nbits bits.
func orBitsAt(dst []uint64, off int, src []uint64, nbits int) {
	w, s := off>>6, uint(off&63)
	for i := 0; nbits > 0; i++ {
		v := src[i]
		dst[w+i] |= v << s
		if s != 0 && nbits > int(64-s) {
			dst[w+i+1] |= v >> (64 - s)
		}
		nbits -= 64
	}
}

// processChunk advances the engine over one chunk's (run-id, repeat)
// tokens and fills ann for the shard lanes. A state fixed point (the
// run maps the machine state to itself — every steady loop iteration
// after the first) collapses the remaining repeats into counter adds
// without further memo probes.
func (e *runEngine) processChunk(ch *runstream.Chunk, ann *chunkAnn) {
	if n := len(ch.Tokens); cap(ann.toks) < n {
		ann.toks = make([]runTok, 0, n+n/4)
	}
	ann.toks = ann.toks[:0]
	nWords := (ch.N + 63) / 64 // upper bound on cond-branch count
	if cap(ann.fed) < nWords {
		ann.fed = make([]uint64, nWords)
	}
	ann.fed = ann.fed[:nWords]
	for i := range ann.fed {
		ann.fed[i] = 0
	}
	e.syncDict(ch.Dict)
	brOff := 0
	for _, tok := range ch.Tokens {
		ri := e.dictRuns[tok.ID]
		brOff = e.step(ann, ri, tok.Rep, brOff)
		ann.toks = append(ann.toks, runTok{ri: ri, rep: tok.Rep})
	}
}

// syncDict extends dictRuns to cover dict, interning any new runs.
func (e *runEngine) syncDict(dict *runstream.Dict) {
	if e.dict != dict {
		e.dictRuns = e.dictRuns[:0]
		e.dict = dict
	}
	for len(e.dictRuns) < len(dict.Runs) {
		r := dict.Runs[len(e.dictRuns)]
		e.dictRuns = append(e.dictRuns, e.runFor(r.PC, r.N))
	}
}

// step advances the machine state over rep executions of ri starting
// at brOff in the chunk's cond-branch ordinal space, and returns the
// new brOff.
func (e *runEngine) step(ann *chunkAnn, ri *runInfo, rep int32, brOff int) int {
	for rep > 0 {
		ri.occ++
		key := memoKey{state: e.cur, pc: ri.pc, n: ri.n}
		ti := e.memo.lookup(key)
		if ti == 0 {
			ti = e.eval(e.cur, ri) + 1
			e.memo.insert(key, ti)
		}
		tr := &e.trans[ti-1]
		tr.occ++
		var fedMask []uint64
		if tr.fedCount != 0 {
			fedMask = e.fedArena[tr.fedOff:]
			orBitsAt(ann.fed, brOff, fedMask, len(ri.brs))
		}
		brOff += len(ri.brs)
		e.cur = tr.next
		rep--
		if rep > 0 && tr.next == key.state {
			// Fixed point: the remaining repeats all take this same
			// transition. Fed bits still land at distinct ordinals.
			tr.occ += uint64(rep)
			ri.occ += uint64(rep)
			if fedMask != nil {
				for ; rep > 0; rep-- {
					orBitsAt(ann.fed, brOff, fedMask, len(ri.brs))
					brOff += len(ri.brs)
				}
			} else {
				brOff += int(rep) * len(ri.brs)
				rep = 0
			}
		}
	}
	return brOff
}

// finish multiplies the interned characterizations by their occurrence
// counts into r's mix, dependence, and sequence tables. r's per-load
// tables must be sized for the engine's program and its maps non-nil.
func (e *runEngine) finish(r *Snapshot) {
	for _, ri := range e.runs {
		occ := ri.occ
		if occ == 0 {
			continue
		}
		r.Total += uint64(ri.n) * occ
		for c := range ri.classCounts {
			r.ClassCounts[c] += uint64(ri.classCounts[c]) * occ
		}
		r.FPCount += uint64(ri.fp) * occ
		r.FPLoads += uint64(ri.fpLoads) * occ
		for _, off := range ri.loads {
			r.LoadCounts[ri.pc+off] += occ
		}
	}
	for i := range e.trans {
		tr := &e.trans[i]
		if tr.occ == 0 {
			continue
		}
		r.FedBranchExec += uint64(tr.fedCount) * tr.occ
		cs := e.credits[tr.credOff : tr.credOff+tr.nDep+tr.nSeq]
		for _, c := range cs[:tr.nDep] {
			n := uint64(c.n) * tr.occ
			r.ToBranch[c.loadPC] += n
			fb := r.FedBranch[c.loadPC]
			if fb == nil {
				fb = make(map[int32]uint64)
				r.FedBranch[c.loadPC] = fb
			}
			fb[c.branchPC] += n
		}
		for _, c := range cs[tr.nDep:] {
			ab := r.AfterBranch[c.loadPC]
			if ab == nil {
				ab = make(map[int32]uint64)
				r.AfterBranch[c.loadPC] = ab
			}
			ab[c.branchPC] += uint64(c.n) * tr.occ
		}
	}
}
