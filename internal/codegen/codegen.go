package codegen

import (
	"fmt"
	"math"

	"bioperfload/internal/ir"
	"bioperfload/internal/isa"
)

// Options parameterizes code generation.
type Options struct {
	// AllocIntRegs / AllocFPRegs cap how many registers the
	// allocator may use per class (0 = the full pool of 19). The
	// Pentium 4 platform compiles with 8.
	AllocIntRegs int
	AllocFPRegs  int
}

// Physical register conventions (see package isa):
//
//	r0        integer result
//	r1..r15   allocatable (callee-saved)
//	r16..r21  integer/pointer arguments
//	r22..r25  allocatable (callee-saved)
//	r26       return address
//	r27..r29  spill/materialization scratch
//	r30       SP, r31 zero
//
// and symmetrically f0/f1..f15/f16..f21/f22..f25/f27..f28 for floats.
var (
	intPoolFull = []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 22, 23, 24, 25}
	fpPoolFull  = []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 22, 23, 24, 25}
)

const (
	scratch0  = 27
	scratch1  = 28
	scratch2  = 29
	fscratch0 = 27
	fscratch1 = 28
)

// Generate lowers an IR program to a VRISC64 executable. syms is the
// already-laid-out global symbol table (data segment addresses were
// assigned before lowering); dataEnd is the first free data address,
// used to place the floating-point constant pool. inits carries
// initialized global data.
func Generate(p *ir.Program, syms []isa.Symbol, inits []isa.DataInit, dataEnd uint64, opts Options) (*isa.Program, error) {
	intPool := intPoolFull
	fpPool := fpPoolFull
	switch {
	case opts.AllocIntRegs > 0 && opts.AllocIntRegs < len(intPool):
		intPool = intPool[:opts.AllocIntRegs]
	case opts.AllocIntRegs > len(intPool):
		// Large-register-file target (Itanium 2): extend the pool
		// with the upper register file r32..r63.
		intPool = append([]uint8(nil), intPool...)
		for r := uint8(32); r < 64 && len(intPool) < opts.AllocIntRegs; r++ {
			intPool = append(intPool, r)
		}
	}
	switch {
	case opts.AllocFPRegs > 0 && opts.AllocFPRegs < len(fpPool):
		fpPool = fpPool[:opts.AllocFPRegs]
	case opts.AllocFPRegs > len(fpPool):
		fpPool = append([]uint8(nil), fpPool...)
		for r := uint8(32); r < 64 && len(fpPool) < opts.AllocFPRegs; r++ {
			fpPool = append(fpPool, r)
		}
	}
	g := &gen{
		irp:     p,
		intPool: intPool,
		fpPool:  fpPool,
		out: &isa.Program{
			Name:    p.Name,
			Files:   []string{p.Name},
			Symbols: append([]isa.Symbol(nil), syms...),
			Init:    append([]isa.DataInit(nil), inits...),
		},
		fpoolIdx: make(map[uint64]int),
		poolBase: (dataEnd + 7) &^ 7,
	}

	// Entry stub: call main, halt.
	mainIdx, ok := p.FuncIndex["main"]
	if !ok {
		return nil, fmt.Errorf("codegen: no main in %s", p.Name)
	}
	g.emit(isa.Inst{Op: isa.OpJsr, Rd: isa.RegRA, Target: -1})
	g.callFixups = append(g.callFixups, fixup{at: 0, fn: mainIdx})
	g.emit(isa.Inst{Op: isa.OpHalt})

	g.funcEntries = make([]int32, len(p.Funcs))
	for i, f := range p.Funcs {
		g.funcEntries[i] = int32(len(g.out.Insts))
		if err := g.genFunc(f, int32(i)); err != nil {
			return nil, err
		}
		g.out.Funcs = append(g.out.Funcs, isa.FuncInfo{
			Name:  f.Name,
			Entry: g.funcEntries[i],
			End:   int32(len(g.out.Insts)),
		})
	}
	for _, fx := range g.callFixups {
		g.out.Insts[fx.at].Target = g.funcEntries[fx.fn]
	}

	// Emit the FP constant pool.
	if len(g.fpool) > 0 {
		buf := make([]byte, len(g.fpool)*8)
		for i, bits := range g.fpool {
			for k := 0; k < 8; k++ {
				buf[i*8+k] = byte(bits >> (8 * k))
			}
		}
		g.out.Symbols = append(g.out.Symbols, isa.Symbol{
			Name: "..fpool", Addr: g.poolBase, Size: uint64(len(buf)), Elem: 8, IsFP: true,
		})
		g.out.Init = append(g.out.Init, isa.DataInit{Addr: g.poolBase, Bytes: buf})
		g.out.DataEnd = g.poolBase + uint64(len(buf))
	} else {
		g.out.DataEnd = g.poolBase
	}

	if err := g.out.Validate(); err != nil {
		return nil, err
	}
	return g.out, nil
}

type fixup struct {
	at int32
	fn int32
}

type gen struct {
	irp         *ir.Program
	out         *isa.Program
	intPool     []uint8
	fpPool      []uint8
	funcEntries []int32
	callFixups  []fixup

	fpool    []uint64 // float64 bit patterns
	fpoolIdx map[uint64]int
	poolBase uint64

	// Per-function state.
	f           *ir.Func
	fnIdx       int32
	as          *Assignment
	constOf     map[ir.Value]int64 // single-def integer constants
	regUses     map[ir.Value]int   // uses requiring a register
	frameSize   int64
	savedInt    []uint8
	savedFP     []uint8
	spillOff    int64 // frame offset of spill slot 0
	slotOff     []int64
	saveOff     int64
	makesCalls  bool
	outArgs     int64
	blockPC     []int32
	brFixups    []brFixup
	scratchN    int
	scratchRegs []uint8
}

type brFixup struct {
	at    int32
	block int32
}

func (g *gen) emit(in isa.Inst) int32 {
	g.out.Insts = append(g.out.Insts, in)
	return int32(len(g.out.Insts) - 1)
}

func (g *gen) emitPos(in isa.Inst, line int32) int32 {
	in.Pos = isa.SrcPos{File: 0, Func: g.fnIdx, Line: line}
	return g.emit(in)
}

func (g *gen) fpoolAddr(v float64) uint64 {
	bits := math.Float64bits(v)
	idx, ok := g.fpoolIdx[bits]
	if !ok {
		idx = len(g.fpool)
		g.fpool = append(g.fpool, bits)
		g.fpoolIdx[bits] = idx
	}
	return g.poolBase + uint64(idx)*8
}

// reachable marks blocks reachable from the entry.
func reachable(f *ir.Func) []bool {
	seen := make([]bool, len(f.Blocks))
	var stack []int32
	stack = append(stack, 0)
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[b].Succs() {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

func (g *gen) genFunc(f *ir.Func, idx int32) error {
	g.f = f
	g.fnIdx = idx
	g.blockPC = make([]int32, len(f.Blocks))
	g.brFixups = g.brFixups[:0]
	live := reachable(f)

	// Frame layout inputs. Leaf functions may additionally allocate
	// the argument registers and the result register, which a
	// compiler knows are dead across a leaf body — this matters for
	// the Viterbi kernel, whose 18 parameters would otherwise spill.
	g.makesCalls = false
	maxOverflow := 0
	for _, b := range f.Blocks {
		if !live[b.ID] {
			continue
		}
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				g.makesCalls = true
				ov := overflowCount(g.irp.Funcs[b.Instrs[i].Sym], b.Instrs[i].Args)
				if ov > maxOverflow {
					maxOverflow = ov
				}
			}
		}
	}
	intPool, fpPool := g.intPool, g.fpPool
	g.as = nil
	g.scratchRegs = []uint8{scratch0, scratch1, scratch2}
	if !g.makesCalls {
		// Respect a restricted register budget (Pentium 4): the
		// budget is the total allocatable count, leaf or not.
		if len(g.fpPool) >= len(fpPoolFull) {
			fpPool = append(append([]uint8(nil), fpPool...), 16, 17, 18, 19, 20, 21, 0)
		}
		if len(g.intPool) >= len(intPoolFull) {
			intPool = append(append([]uint8(nil), intPool...), 16, 17, 18, 19, 20, 21, 0)
			// Optimistic pass: hand two of the scratch registers to
			// the allocator as well. If nothing spills, a single
			// scratch suffices for the remaining materializations
			// (FP constants, CmpNE temporaries); otherwise redo the
			// allocation with the scratches reserved.
			try := allocate(f, append(append([]uint8(nil), intPool...), scratch1, scratch2), fpPool)
			if try.NumSpills == 0 {
				g.as = try
				g.scratchRegs = []uint8{scratch0}
			}
		}
	}
	if g.as == nil {
		g.as = allocate(f, intPool, fpPool)
	}
	g.scanConsts()
	g.outArgs = int64(maxOverflow) * 8
	g.spillOff = g.outArgs
	off := g.spillOff + int64(g.as.NumSpills)*8
	g.slotOff = make([]int64, len(f.Frame))
	for i, s := range f.Frame {
		g.slotOff[i] = off
		off += (s.Size + 7) &^ 7
	}
	g.saveOff = off
	g.savedInt = filterCalleeSaved(g.as.UsedInt)
	g.savedFP = filterCalleeSaved(g.as.UsedFP)
	nSave := len(g.savedInt) + len(g.savedFP)
	if g.makesCalls {
		nSave++ // RA
	}
	off += int64(nSave) * 8
	g.frameSize = (off + 15) &^ 15

	// Prologue.
	line := f.Line
	if g.frameSize > 0 {
		g.emitPos(isa.Inst{Op: isa.OpLda, Rd: isa.RegSP, Ra: isa.RegSP, HasImm: true, Imm: -g.frameSize}, line)
	}
	so := g.saveOff
	if g.makesCalls {
		g.emitPos(isa.Inst{Op: isa.OpStq, Rb: isa.RegRA, Ra: isa.RegSP, HasImm: true, Imm: so}, line)
		so += 8
	}
	for _, r := range g.savedInt {
		g.emitPos(isa.Inst{Op: isa.OpStq, Rb: r, Ra: isa.RegSP, HasImm: true, Imm: so}, line)
		so += 8
	}
	for _, r := range g.savedFP {
		g.emitPos(isa.Inst{Op: isa.OpStt, Rb: r, Ra: isa.RegSP, HasImm: true, Imm: so}, line)
		so += 8
	}

	// Bind incoming parameters to their homes. Homes may themselves
	// be argument registers (leaf functions allocate them), so the
	// register-to-register moves are resolved as a parallel move:
	// each step moves a parameter whose home is not a still-pending
	// source; cycles are broken through a scratch register.
	intIdx, fpIdx, ovIdx := 0, 0, 0
	var moves []paramMove
	for _, pm := range f.Params {
		var srcReg uint8
		inReg := false
		if pm.IsFloat {
			if fpIdx < isa.NumArgs {
				srcReg = uint8(isa.FRegA0 + fpIdx)
				inReg = true
			}
			fpIdx++
		} else {
			if intIdx < isa.NumArgs {
				srcReg = uint8(isa.RegA0 + intIdx)
				inReg = true
			}
			intIdx++
		}
		reg := g.as.Reg[pm.Val]
		slot := g.as.SpillSlot[pm.Val]
		if reg < 0 && slot < 0 {
			if !inReg {
				ovIdx++
			}
			continue // parameter never used
		}
		if inReg {
			if reg >= 0 {
				if uint8(reg) != srcReg {
					moves = append(moves, paramMove{src: srcReg, dst: uint8(reg), isFP: pm.IsFloat})
				}
			} else if pm.IsFloat {
				g.emitPos(isa.Inst{Op: isa.OpStt, Rb: srcReg, Ra: isa.RegSP, HasImm: true, Imm: g.spillAddr(slot)}, line)
			} else {
				g.emitPos(isa.Inst{Op: isa.OpStq, Rb: srcReg, Ra: isa.RegSP, HasImm: true, Imm: g.spillAddr(slot)}, line)
			}
		} else {
			// Overflow argument: load from the caller's outgoing
			// area, which sits just above our frame.
			srcOff := g.frameSize + int64(ovIdx)*8
			ovIdx++
			if pm.IsFloat {
				tgt := uint8(fscratch0)
				if reg >= 0 {
					tgt = uint8(reg)
				}
				g.emitPos(isa.Inst{Op: isa.OpLdt, Rd: tgt, Ra: isa.RegSP, HasImm: true, Imm: srcOff}, line)
				if reg < 0 {
					g.emitPos(isa.Inst{Op: isa.OpStt, Rb: tgt, Ra: isa.RegSP, HasImm: true, Imm: g.spillAddr(slot)}, line)
				}
			} else {
				tgt := uint8(scratch0)
				if reg >= 0 {
					tgt = uint8(reg)
				}
				g.emitPos(isa.Inst{Op: isa.OpLdq, Rd: tgt, Ra: isa.RegSP, HasImm: true, Imm: srcOff}, line)
				if reg < 0 {
					g.emitPos(isa.Inst{Op: isa.OpStq, Rb: tgt, Ra: isa.RegSP, HasImm: true, Imm: g.spillAddr(slot)}, line)
				}
			}
		}
	}

	g.emitParallelMoves(moves, line)

	// Body.
	for _, b := range f.Blocks {
		if !live[b.ID] {
			g.blockPC[b.ID] = -1
			continue
		}
		g.blockPC[b.ID] = int32(len(g.out.Insts))
		for i := range b.Instrs {
			if err := g.genInstr(&b.Instrs[i]); err != nil {
				return err
			}
		}
		if err := g.genTerm(b, live); err != nil {
			return err
		}
	}
	for _, fx := range g.brFixups {
		tgt := g.blockPC[fx.block]
		if tgt < 0 {
			return fmt.Errorf("codegen: %s: branch to unreachable block b%d", f.Name, fx.block)
		}
		g.out.Insts[fx.at].Target = tgt
	}
	return nil
}

func overflowCount(callee *ir.Func, args []ir.Value) int {
	intIdx, fpIdx, ov := 0, 0, 0
	for _, pm := range callee.Params {
		if pm.IsFloat {
			if fpIdx >= isa.NumArgs {
				ov++
			}
			fpIdx++
		} else {
			if intIdx >= isa.NumArgs {
				ov++
			}
			intIdx++
		}
	}
	_ = args
	return ov
}

func (g *gen) spillAddr(slot int32) int64 { return g.spillOff + int64(slot)*8 }

// scanConsts finds integer values defined exactly once by OpConstI
// (their uses can fold into immediate operands) and counts the uses
// of each value that still require a register, so LDIQs whose every
// use folded away can be skipped.
func (g *gen) scanConsts() {
	g.constOf = make(map[ir.Value]int64)
	defs := make(map[ir.Value]int)
	for _, b := range g.f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst == ir.NoValue {
				continue
			}
			defs[in.Dst]++
			if in.Op == ir.OpConstI && defs[in.Dst] == 1 {
				g.constOf[in.Dst] = in.Imm
			}
		}
	}
	for v, n := range defs {
		if n > 1 {
			delete(g.constOf, v)
		}
	}

	g.regUses = make(map[ir.Value]int)
	count := func(v ir.Value) {
		if v != ir.NoValue {
			g.regUses[v]++
		}
	}
	var buf []ir.Value
	for _, b := range g.f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if foldableImmOp(in.Op) && in.B != ir.NoValue {
				if c, ok := g.constOf[in.B]; ok && fitsImm(c) {
					count(in.A) // B folds; only A needs a register
					continue
				}
			}
			buf = in.Uses(buf[:0])
			for _, v := range buf {
				count(v)
			}
		}
		buf = b.Term.Uses(buf[:0])
		for _, v := range buf {
			count(v)
		}
	}
}

// immOf reports whether v is a foldable integer constant.
func (g *gen) immOf(v ir.Value) (int64, bool) {
	c, ok := g.constOf[v]
	return c, ok
}

// filterCalleeSaved drops argument registers and the result register
// (caller-saved by convention) from a used-register list.
func filterCalleeSaved(regs []uint8) []uint8 {
	var out []uint8
	for _, r := range regs {
		if r == 0 || (r >= isa.RegA0 && r < isa.RegA0+isa.NumArgs) {
			continue
		}
		out = append(out, r)
	}
	return out
}
