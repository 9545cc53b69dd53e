package loadchar

import (
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// The dependence and sequence machines: the only characterization
// state that survives from one committed instruction to the next
// besides the cache and predictor. The run engine steps them over
// synthetic runs (runEngine.eval) and records what they report through
// their rec hooks; it never feeds them branch outcomes or addresses,
// which neither machine reads.

// --- dependence machine: load-to-branch chains ---

type depPass struct {
	deps [isa.NumIntRegs + isa.NumFPRegs]regDep
	// rec receives every conditional branch: whether a load-derived
	// value fed it, and the (up to two) loads the value derives from.
	rec func(branchPC int32, fed bool, srcA, srcB int32)
}

// observe advances the register dependence state machine.
func (p *depPass) observe(evs []sim.Event) {
	for i := range evs {
		in := evs[i].Inst
		op := in.Op
		switch cls := isa.ClassOf(op); {
		case cls == isa.ClassLoad:
			dst := int(in.Rd)
			if op == isa.OpLdt {
				dst = fpIdx(in.Rd)
			}
			if !isZeroReg(in.Rd, op == isa.OpLdt) {
				p.deps[dst] = regDep{depth: 0, srcA: evs[i].PC, srcB: -1}
			}
		case cls == isa.ClassStore:
		case cls == isa.ClassCondBranch:
			d := p.deps[in.Ra]
			p.rec(evs[i].PC, in.Ra != isa.RZero && d.depth >= 0, d.srcA, d.srcB)
		default:
			p.propagate(in)
		}
	}
}

// propagate advances the register dependence state for non-memory,
// non-branch instructions.
func (p *depPass) propagate(in *isa.Inst) {
	op := in.Op
	clearDst := func(idx int) { p.deps[idx] = regDep{depth: -1} }

	merge := func(dst int, srcs ...int) {
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
		p.deps[dst] = nd
	}

	switch {
	case op == isa.OpLdiq || op == isa.OpLda:
		if !isZeroReg(in.Rd, false) {
			if op == isa.OpLda {
				merge(int(in.Rd), int(in.Ra))
			} else {
				clearDst(int(in.Rd))
			}
		}
	case isa.IsCmov(op):
		if !isZeroReg(in.Rd, false) {
			merge(int(in.Rd), int(in.Ra), int(in.Rb), int(in.Rd))
		}
	case op == isa.OpCmpTeq || op == isa.OpCmpTlt || op == isa.OpCmpTle:
		if !isZeroReg(in.Rd, false) {
			merge(int(in.Rd), fpIdx(in.Ra), fpIdx(in.Rb))
		}
	case op == isa.OpCvtQT:
		if !isZeroReg(in.Rd, true) {
			merge(fpIdx(in.Rd), int(in.Ra))
		}
	case op == isa.OpCvtTQ:
		if !isZeroReg(in.Rd, false) {
			merge(int(in.Rd), fpIdx(in.Ra))
		}
	case op == isa.OpFMov || op == isa.OpFNeg:
		if !isZeroReg(in.Rd, true) {
			merge(fpIdx(in.Rd), fpIdx(in.Ra))
		}
	case op == isa.OpAddt || op == isa.OpSubt || op == isa.OpMult || op == isa.OpDivt:
		if !isZeroReg(in.Rd, true) {
			merge(fpIdx(in.Rd), fpIdx(in.Ra), fpIdx(in.Rb))
		}
	case op == isa.OpPrint || op == isa.OpPrintF || op == isa.OpHalt || op == isa.OpNop:
	case op == isa.OpJsr:
		if !isZeroReg(in.Rd, false) {
			clearDst(int(in.Rd))
		}
	case op == isa.OpRet:
	default: // integer ALU
		if isZeroReg(in.Rd, false) {
			return
		}
		if in.HasImm {
			merge(int(in.Rd), int(in.Ra))
		} else {
			merge(int(in.Rd), int(in.Ra), int(in.Rb))
		}
	}
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
		op := in.Op
		seq := evs[i].Seq

		// Consumption checks run before this instruction's own effects,
		// so a load reading a pending register is seen before it arms
		// its own destination.
		p.consume(in, seq)

		switch cls := isa.ClassOf(op); {
		case cls == isa.ClassLoad:
			if !isZeroReg(in.Rd, op == isa.OpLdt) {
				dst := int(in.Rd)
				if op == isa.OpLdt {
					dst = fpIdx(in.Rd)
				}
				after := int32(-1)
				if p.haveBranch && seq-p.lastBranchSeq <= proximity {
					after = p.lastBranchPC
				}
				p.pending[dst] = pendingLoad{active: true, loadPC: evs[i].PC, afterBranch: after, seq: seq}
			}
		case cls == isa.ClassStore:
		case cls == isa.ClassCondBranch:
			p.lastBranchPC = evs[i].PC
			p.lastBranchSeq = seq
			p.haveBranch = true
		default:
			p.deactivate(in)
		}
	}
}

// consume checks whether this instruction reads a register holding a
// pending just-loaded value within the proximity window, completing a
// branch-to-load sequence record.
func (p *seqPass) consume(in *isa.Inst, seq uint64) {
	check := func(idx int) {
		pd := &p.pending[idx]
		if !pd.active {
			return
		}
		if seq-pd.seq > proximity {
			pd.active = false
			return
		}
		if pd.afterBranch >= 0 {
			p.rec(pd.loadPC, pd.afterBranch)
		}
		pd.active = false
	}
	op := in.Op
	switch {
	case op == isa.OpNop || op == isa.OpHalt || op == isa.OpLdiq || op == isa.OpBr || op == isa.OpJsr:
	case op == isa.OpLdt || op == isa.OpLdq || op == isa.OpLdbu || op == isa.OpLda:
		check(int(in.Ra))
	case op == isa.OpStq || op == isa.OpStb:
		check(int(in.Ra))
		check(int(in.Rb))
	case op == isa.OpStt:
		check(int(in.Ra))
		check(fpIdx(in.Rb))
	case op == isa.OpAddt || op == isa.OpSubt || op == isa.OpMult || op == isa.OpDivt ||
		op == isa.OpCmpTeq || op == isa.OpCmpTlt || op == isa.OpCmpTle:
		check(fpIdx(in.Ra))
		check(fpIdx(in.Rb))
	case op == isa.OpCvtQT:
		check(int(in.Ra))
	case op == isa.OpCvtTQ, op == isa.OpFMov, op == isa.OpFNeg, op == isa.OpPrintF:
		check(fpIdx(in.Ra))
	case isa.IsCondBranch(op) || op == isa.OpRet || op == isa.OpPrint:
		check(int(in.Ra))
	case isa.IsCmov(op):
		check(int(in.Ra))
		check(int(in.Rb))
		check(int(in.Rd))
	default: // integer ALU
		check(int(in.Ra))
		if !in.HasImm {
			check(int(in.Rb))
		}
	}
}

// deactivate mirrors depPass.propagate's destination-register writes:
// any instruction that overwrites a register disarms a pending load
// waiting there. The case structure must match propagate exactly.
func (p *seqPass) deactivate(in *isa.Inst) {
	op := in.Op
	clear := func(idx int) { p.pending[idx].active = false }

	switch {
	case op == isa.OpLdiq || op == isa.OpLda:
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	case isa.IsCmov(op):
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	case op == isa.OpCmpTeq || op == isa.OpCmpTlt || op == isa.OpCmpTle:
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	case op == isa.OpCvtQT:
		if !isZeroReg(in.Rd, true) {
			clear(fpIdx(in.Rd))
		}
	case op == isa.OpCvtTQ:
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	case op == isa.OpFMov || op == isa.OpFNeg:
		if !isZeroReg(in.Rd, true) {
			clear(fpIdx(in.Rd))
		}
	case op == isa.OpAddt || op == isa.OpSubt || op == isa.OpMult || op == isa.OpDivt:
		if !isZeroReg(in.Rd, true) {
			clear(fpIdx(in.Rd))
		}
	case op == isa.OpPrint || op == isa.OpPrintF || op == isa.OpHalt || op == isa.OpNop:
	case op == isa.OpJsr:
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	case op == isa.OpRet:
	default: // integer ALU
		if !isZeroReg(in.Rd, false) {
			clear(int(in.Rd))
		}
	}
}
