package loadchar

import "bioperfload/internal/isa"

// storeBit marks a store in a mems offset entry (offsets are chunk-run
// offsets, far below 2^30).
const storeBit = int32(1) << 30

// runInfo is the static characterization of one straight-line PC run
// (PC, PC+1, ..., PC+n-1) as it appears in the trace's run stream,
// assembled from its instructions once per run (runEngine.runFor),
// plus the run's total occurrence count: the per-class instruction
// counts and the run-relative offsets of the instructions each replay
// lane dispatches on. runInfo pointers are shared across chunks and
// read concurrently by shard lanes; they are immutable after
// construction except for occ, which only the run lane touches.
type runInfo struct {
	pc int32
	n  int32

	classCounts [isa.NumClasses]uint32
	fp          uint32
	fpLoads     uint32
	loads       []int32 // offsets of loads (mix pass load counts)
	mems        []int32 // offsets of loads/stores, storeBit marks stores
	brs         []int32 // offsets of conditional branches

	occ uint64
}

// accumRange classifies ri's instructions [ri.pc, ri.pc+ri.n) into
// ri.
func accumRange(ri *runInfo, prog *isa.Program) {
	for pc := ri.pc; pc < ri.pc+ri.n; pc++ {
		op := prog.Insts[pc].Op
		cls := isa.ClassOf(op)
		ri.classCounts[cls]++
		if isa.IsFloat(op) {
			ri.fp++
			if cls == isa.ClassLoad {
				ri.fpLoads++
			}
		}
		off := pc - ri.pc
		switch cls {
		case isa.ClassLoad:
			ri.loads = append(ri.loads, off)
			ri.mems = append(ri.mems, off)
		case isa.ClassStore:
			ri.mems = append(ri.mems, off|storeBit)
		case isa.ClassCondBranch:
			ri.brs = append(ri.brs, off)
		}
	}
}
