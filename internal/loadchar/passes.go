package loadchar

import (
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// The dependence and sequence machines: the only characterization
// state that survives from one committed instruction to the next
// besides the cache and predictor. Both read each instruction's
// register dataflow from isa.Inst.Operands, the table the timing
// model's dependences come from too, and branch only on instruction
// class. The run engine steps them over synthetic runs
// (runEngine.eval) and records what they report through their rec
// hooks; it never feeds them branch outcomes or addresses, which
// neither machine reads.

// --- dependence machine: load-to-branch chains ---

type depPass struct {
	deps [isa.NumIntRegs + isa.NumFPRegs]regDep
	// rec receives every conditional branch: whether a load-derived
	// value fed it, and the (up to two) loads the value derives from.
	rec func(branchPC int32, fed bool, srcA, srcB int32)
}

// observe advances the register dependence state machine: a load
// starts a chain in its destination, a conditional branch reports the
// chain in the register it tests, and every other register write
// merges the chains of the registers it reads.
func (p *depPass) observe(evs []sim.Event) {
	for i := range evs {
		in := evs[i].Inst
		reads, n, write := in.Operands()
		switch isa.ClassOf(in.Op) {
		case isa.ClassLoad:
			if write >= 0 {
				p.deps[write] = regDep{depth: 0, srcA: evs[i].PC, srcB: -1}
			}
		case isa.ClassCondBranch:
			// reads[0] is the tested register, or the never-written
			// RZero pad when the branch tests the zero register.
			d := p.deps[reads[0]]
			p.rec(evs[i].PC, d.depth >= 0, d.srcA, d.srcB)
		default:
			if write >= 0 {
				p.deps[write] = p.merge(reads[:n])
			}
		}
	}
}

// merge returns the chain a value computed from srcs carries: one
// operation deeper than its deepest load-derived source still within
// chainDepth, crediting up to two distinct loads. With no such source
// (a constant, a call's return address) the value is not load-derived.
func (p *depPass) merge(srcs []uint8) regDep {
	nd := regDep{depth: -1, srcA: -1, srcB: -1}
	for _, s := range srcs {
		d := p.deps[s]
		if d.depth < 0 || d.depth >= chainDepth {
			continue
		}
		if nd.depth < 0 {
			nd = regDep{depth: d.depth + 1, srcA: d.srcA, srcB: d.srcB}
			continue
		}
		if d.depth+1 > nd.depth {
			nd.depth = d.depth + 1
		}
		if nd.srcB < 0 && d.srcA != nd.srcA {
			nd.srcB = d.srcA
		}
	}
	return nd
}

// --- sequence machine: branch-to-load sequences (Table 4b) ---

type pendingLoad struct {
	active      bool
	loadPC      int32
	afterBranch int32 // -1 when not right after a branch
	seq         uint64
}

type seqPass struct {
	pending       [isa.NumIntRegs + isa.NumFPRegs]pendingLoad
	lastBranchPC  int32
	lastBranchSeq uint64
	haveBranch    bool
	// rec receives every completed branch-to-load sequence: a load that
	// executed right after a branch and had a tight consumer.
	rec func(loadPC, branchPC int32)
}

func (p *seqPass) observe(evs []sim.Event) {
	for i := range evs {
		in := evs[i].Inst
		seq := evs[i].Seq
		reads, n, write := in.Operands()

		// Consumption checks run before this instruction's own effects,
		// so a load reading a pending register is seen before it arms
		// its own destination.
		for _, r := range reads[:n] {
			p.consume(r, seq)
		}

		switch {
		case isa.IsCondBranch(in.Op):
			p.lastBranchPC = evs[i].PC
			p.lastBranchSeq = seq
			p.haveBranch = true
		case write < 0:
		case isa.IsLoad(in.Op):
			after := int32(-1)
			if p.haveBranch && seq-p.lastBranchSeq <= proximity {
				after = p.lastBranchPC
			}
			p.pending[write] = pendingLoad{active: true, loadPC: evs[i].PC, afterBranch: after, seq: seq}
		default:
			// Any other write disarms a load pending in its destination.
			p.pending[write].active = false
		}
	}
}

// consume checks whether a read of register r consumes a pending
// just-loaded value within the proximity window, completing a
// branch-to-load sequence record.
func (p *seqPass) consume(r uint8, seq uint64) {
	pd := &p.pending[r]
	if !pd.active {
		return
	}
	if seq-pd.seq <= proximity && pd.afterBranch >= 0 {
		p.rec(pd.loadPC, pd.afterBranch)
	}
	pd.active = false
}
