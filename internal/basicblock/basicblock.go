// Package basicblock computes the static basic-block map of a compiled
// program: every PC resolves to the block it belongs to in one slice
// lookup. Its one user is the phase-analysis BBV collector
// (internal/simpoint), which turns each straight-line PC run into the
// blocks it covers without touching per-event state.
package basicblock

import "bioperfload/internal/isa"

// Blocks is a static basic-block map. Block leaders are the program
// entry, every control-transfer target, and every instruction
// following a control transfer — the standard definition, computed
// once per compiled program.
type Blocks struct {
	of   []int32
	next []int32 // pc where the block after pc's begins (len(insts) for the last)
	n    int
}

// Map computes the basic-block map of prog.
func Map(prog *isa.Program) *Blocks {
	n := len(prog.Insts)
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for pc := range prog.Insts {
		in := &prog.Insts[pc]
		switch in.Op {
		case isa.OpBr, isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBle,
			isa.OpBgt, isa.OpBge, isa.OpJsr:
			if in.Target >= 0 && int(in.Target) < n {
				leader[in.Target] = true
			}
			if pc+1 < n {
				leader[pc+1] = true
			}
		case isa.OpRet, isa.OpHalt:
			// Return targets are always JSR successors, which the JSR
			// case already marked; the fall-through slot still starts a
			// fresh block.
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}
	b := &Blocks{of: make([]int32, n), next: make([]int32, n)}
	id := int32(-1)
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			id++
		}
		b.of[pc] = id
	}
	b.n = int(id) + 1
	nx := int32(n)
	for pc := n - 1; pc >= 0; pc-- {
		b.next[pc] = nx
		if leader[pc] {
			nx = int32(pc)
		}
	}
	return b
}

// NumBlocks returns the number of static basic blocks.
func (b *Blocks) NumBlocks() int { return b.n }

// Of returns the block ID of pc.
func (b *Blocks) Of(pc int32) int32 { return b.of[pc] }

// NextLeader returns the pc at which the block containing pc ends:
// the next block leader, or the program length for the final block.
// Every pc in [pc, NextLeader(pc)) shares Of(pc)'s block.
func (b *Blocks) NextLeader(pc int32) int32 { return b.next[pc] }
