package pipeline

import "bioperfload/internal/isa"

// instClass is the set of instruction classes the model branches on.
type instClass uint8

const (
	classLoad       instClass = 1 << iota // reads data memory
	classStore                            // writes data memory
	classCondBranch                       // trains the branch predictor
	classBranch                           // any control transfer; taken ones break fetch
)

// decoded is one static instruction as the model sees it on one
// machine: the registers it reads and writes, its execution latency,
// and its class.
type decoded struct {
	inst *isa.Inst // the instruction this entry was decoded from
	lat  int32     // execLatency on the table's machine
	// srcs are the register-file indices read (see deps). Unused
	// entries hold the integer zero register, which no instruction
	// writes, so its ready time stays 0 and the model can take the
	// maximum over all three without a count.
	srcs  [3]uint8
	dst   int8 // register-file index written, -1 if none
	class instClass
}

// decodeTable decodes each static instruction once per model, all at
// once when the model is bound to its program (Model.Bind) or else the
// first time its PC commits, and serves every later commit from a
// PC-indexed slice: the per-event work of dependence extraction, the
// latency switch and the class tests is paid once per static
// instruction (Graphite's per-block analyzeInterval discipline).
//
// An entry remembers the *isa.Inst it was decoded from and is decoded
// again when a later event at that PC carries a different one, so
// synthetic streams that reuse PCs for different instructions time
// exactly as if every instruction had its own PC.
type decodeTable struct {
	cfg  *Config
	ents []decoded
}

// newDecodeTable returns an empty table for the machine cfg points to;
// cfg must be normalized and must outlive the table.
func newDecodeTable(cfg *Config) decodeTable { return decodeTable{cfg: cfg} }

// lookup returns the decoded form of in, committed at pc, a static
// instruction index (sim.Event.PC). The entry is owned by the table and
// valid until the next lookup at the same PC.
func (t *decodeTable) lookup(pc int32, in *isa.Inst) *decoded {
	if uint32(pc) < uint32(len(t.ents)) && t.ents[pc].inst == in {
		return &t.ents[pc]
	}
	return t.decode(pc, in)
}

// bind decodes every instruction of prog into a table of exactly its
// length, reusing the table's storage when it is large enough.
func (t *decodeTable) bind(prog *isa.Program) {
	n := len(prog.Insts)
	if cap(t.ents) < n {
		t.ents = make([]decoded, n)
	}
	t.ents = t.ents[:n]
	for pc := range prog.Insts {
		t.decode(int32(pc), &prog.Insts[pc])
	}
}

// decode fills the entry for pc from in, growing the table as needed.
func (t *decodeTable) decode(pc int32, in *isa.Inst) *decoded {
	if i := int(pc); i >= len(t.ents) {
		grown := make([]decoded, i+i/2+16)
		copy(grown, t.ents)
		t.ents = grown
	}
	d := &t.ents[pc]
	var c instClass
	switch {
	case isa.IsLoad(in.Op):
		c = classLoad
	case isa.IsStore(in.Op):
		c = classStore
	case isa.IsCondBranch(in.Op):
		c = classCondBranch
	}
	if isa.IsBranch(in.Op) {
		c |= classBranch
	}
	*d = decoded{inst: in, lat: int32(t.cfg.execLatency(in.Op)), class: c}
	d.srcs, d.dst = deps(in)
	return d
}

// execLatency returns the functional-unit latency for op under this
// configuration. The model reads latencies through its decodeTable,
// which calls this; call it on a normalized config, or unset latency
// fields come back 0.
func (c *Config) execLatency(op isa.Op) int {
	switch op {
	case isa.OpMul:
		return c.IntMulLat
	case isa.OpDiv, isa.OpRem:
		return c.IntDivLat
	case isa.OpAddt, isa.OpSubt, isa.OpCmpTeq, isa.OpCmpTlt, isa.OpCmpTle,
		isa.OpCvtQT, isa.OpCvtTQ, isa.OpFMov, isa.OpFNeg:
		return c.FPALULat
	case isa.OpMult:
		return c.FPMulLat
	case isa.OpDivt:
		return c.FPDivLat
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBle, isa.OpBgt, isa.OpBge:
		return c.BranchLat
	default:
		return c.IntALULat
	}
}

// deps returns the register-file indices (int regs first, then FP
// regs from fpBase) the instruction reads, padded with isa.RZero, and
// the index it writes (-1 if none). The hard-wired zero registers are
// never reported as read or written: they are always ready.
func deps(in *isa.Inst) (srcs [3]uint8, dst int8) {
	srcs = [3]uint8{isa.RZero, isa.RZero, isa.RZero}
	dst = -1
	n := 0
	addSrc := func(r int16) {
		if r == isa.RZero || r == fpBase+isa.FZero {
			return
		}
		srcs[n] = uint8(r)
		n++
	}
	setDst := func(r int16) {
		if r == isa.RZero || r == fpBase+isa.FZero {
			return
		}
		dst = int8(r)
	}
	op := in.Op
	switch {
	case op == isa.OpNop || op == isa.OpHalt || op == isa.OpBr:
	case op == isa.OpLdiq:
		setDst(int16(in.Rd))
	case op == isa.OpLda:
		addSrc(int16(in.Ra))
		setDst(int16(in.Rd))
	case isa.IsCmov(op):
		addSrc(int16(in.Ra))
		addSrc(int16(in.Rb))
		addSrc(int16(in.Rd)) // old value of the destination
		setDst(int16(in.Rd))
	case op == isa.OpLdq || op == isa.OpLdbu:
		addSrc(int16(in.Ra))
		setDst(int16(in.Rd))
	case op == isa.OpLdt:
		addSrc(int16(in.Ra))
		setDst(fpBase + int16(in.Rd))
	case op == isa.OpStq || op == isa.OpStb:
		addSrc(int16(in.Ra))
		addSrc(int16(in.Rb))
	case op == isa.OpStt:
		addSrc(int16(in.Ra))
		addSrc(fpBase + int16(in.Rb))
	case op == isa.OpAddt || op == isa.OpSubt || op == isa.OpMult || op == isa.OpDivt:
		addSrc(fpBase + int16(in.Ra))
		addSrc(fpBase + int16(in.Rb))
		setDst(fpBase + int16(in.Rd))
	case op == isa.OpCmpTeq || op == isa.OpCmpTlt || op == isa.OpCmpTle:
		addSrc(fpBase + int16(in.Ra))
		addSrc(fpBase + int16(in.Rb))
		setDst(int16(in.Rd))
	case op == isa.OpCvtQT:
		addSrc(int16(in.Ra))
		setDst(fpBase + int16(in.Rd))
	case op == isa.OpCvtTQ:
		addSrc(fpBase + int16(in.Ra))
		setDst(int16(in.Rd))
	case op == isa.OpFMov || op == isa.OpFNeg:
		addSrc(fpBase + int16(in.Ra))
		setDst(fpBase + int16(in.Rd))
	case isa.IsCondBranch(op):
		addSrc(int16(in.Ra))
	case op == isa.OpJsr:
		setDst(int16(in.Rd))
	case op == isa.OpRet:
		addSrc(int16(in.Ra))
	case op == isa.OpPrint:
		addSrc(int16(in.Ra))
	case op == isa.OpPrintF:
		addSrc(fpBase + int16(in.Ra))
	default: // integer ALU
		addSrc(int16(in.Ra))
		if !in.HasImm {
			addSrc(int16(in.Rb))
		}
		setDst(int16(in.Rd))
	}
	return srcs, dst
}
