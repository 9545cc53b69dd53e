// Package codegen lowers optimized IR to VRISC64 machine code. It
// performs liveness analysis, linear-scan register allocation with a
// configurable allocatable-register budget (the paper attributes the
// Pentium 4's small speedups to its eight logical registers causing
// spills once the load transformation adds temporaries — restricting
// the budget reproduces exactly that), frame layout, and instruction
// emission with source-line tables for the profiler.
package codegen

import (
	"sort"

	"bioperfload/internal/ir"
)

// interval is one value's conservative live range over the linearized
// instruction numbering.
type interval struct {
	val        ir.Value
	start, end int32
	isFloat    bool
	// uses is the loop-depth-weighted occurrence count, used by the
	// spill heuristic (evict the least-busy value).
	uses int64
}

// bitset is a dense bitset over value ids.
type bitset []uint64

func newBitset(n int32) bitset { return make(bitset, (n+63)/64) }

func (s bitset) has(v ir.Value) bool { return s[v>>6]&(1<<(uint(v)&63)) != 0 }
func (s bitset) add(v ir.Value) bool {
	w := &s[v>>6]
	m := uint64(1) << (uint(v) & 63)
	if *w&m != 0 {
		return false
	}
	*w |= m
	return true
}
func (s bitset) orInto(o bitset) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}
func (s bitset) clone() bitset {
	c := make(bitset, len(s))
	copy(c, s)
	return c
}

// liveness computes live-in and live-out sets per block with the
// standard backward iterative dataflow.
func liveness(f *ir.Func) (liveIn, liveOut []bitset) {
	n := int32(f.NumVals)
	nb := len(f.Blocks)
	liveIn = make([]bitset, nb)
	liveOut = make([]bitset, nb)
	use := make([]bitset, nb)
	def := make([]bitset, nb)
	var buf []ir.Value
	for i, b := range f.Blocks {
		liveIn[i] = newBitset(n)
		liveOut[i] = newBitset(n)
		use[i] = newBitset(n)
		def[i] = newBitset(n)
		scan := func(in *ir.Instr) {
			buf = in.Uses(buf[:0])
			for _, v := range buf {
				if !def[i].has(v) {
					use[i].add(v)
				}
			}
			if in.Dst != ir.NoValue {
				// CMov reads its destination, already recorded by
				// Uses; the def still counts.
				def[i].add(in.Dst)
			}
		}
		for j := range b.Instrs {
			scan(&b.Instrs[j])
		}
		scan(&b.Term)
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			b := f.Blocks[i]
			for _, s := range b.Succs() {
				if liveOut[i].orInto(liveIn[s]) {
					changed = true
				}
			}
			// in = use ∪ (out - def)
			tmp := liveOut[i].clone()
			for w := range tmp {
				tmp[w] = use[i][w] | (tmp[w] &^ def[i][w])
			}
			for w := range tmp {
				if tmp[w] != liveIn[i][w] {
					liveIn[i][w] = tmp[w]
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut
}

// buildIntervals linearizes the function (block order, two positions
// per instruction) and produces one conservative interval per value.
// Use counts are weighted by loop depth (approximated from block
// nesting in the lowering's block order) so the spill heuristic keeps
// loop-busy values — e.g. the Viterbi kernel's pointer parameters —
// in registers.
func buildIntervals(f *ir.Func) ([]interval, []int32) {
	liveIn, liveOut := liveness(f)
	starts := make([]int32, len(f.Blocks)) // position of block start
	pos := int32(0)
	for i, b := range f.Blocks {
		starts[i] = pos
		pos += int32(len(b.Instrs)) + 1 // +1 for terminator
	}
	const unset = int32(-1)
	lo := make([]int32, f.NumVals)
	hi := make([]int32, f.NumVals)
	for i := range lo {
		lo[i] = unset
	}
	touch := func(v ir.Value, p int32) {
		if lo[v] == unset {
			lo[v], hi[v] = p, p
			return
		}
		if p < lo[v] {
			lo[v] = p
		}
		if p > hi[v] {
			hi[v] = p
		}
	}
	var buf []ir.Value
	for i, b := range f.Blocks {
		bStart := starts[i]
		bEnd := bStart + int32(len(b.Instrs)) // terminator position
		for v := ir.Value(0); int32(v) < f.NumVals; v++ {
			if liveIn[i].has(v) {
				touch(v, bStart)
			}
			if liveOut[i].has(v) {
				touch(v, bStart)
				touch(v, bEnd)
			}
		}
		p := bStart
		handle := func(in *ir.Instr) {
			buf = in.Uses(buf[:0])
			for _, v := range buf {
				touch(v, p)
			}
			if in.Dst != ir.NoValue {
				touch(v2(in.Dst), p)
			}
			p++
		}
		for j := range b.Instrs {
			handle(&b.Instrs[j])
		}
		handle(&b.Term)
	}
	// Parameters are live from function entry.
	for _, pm := range f.Params {
		if lo[pm.Val] != unset {
			touch(pm.Val, 0)
		}
	}
	weights := blockWeights(f)
	uses := make([]int64, f.NumVals)
	var ubuf []ir.Value
	for i, b := range f.Blocks {
		w := weights[i]
		acc := func(in *ir.Instr) {
			ubuf = in.Uses(ubuf[:0])
			for _, v := range ubuf {
				uses[v] += w
			}
			if in.Dst != ir.NoValue {
				uses[in.Dst] += w
			}
		}
		for j := range b.Instrs {
			acc(&b.Instrs[j])
		}
		acc(&b.Term)
	}
	var out []interval
	for v := ir.Value(0); int32(v) < f.NumVals; v++ {
		if lo[v] == unset {
			continue
		}
		out = append(out, interval{val: v, start: lo[v], end: hi[v], isFloat: f.IsFloat[v], uses: uses[v]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].val < out[j].val
	})
	return out, starts
}

func v2(v ir.Value) ir.Value { return v }

// Assignment is the allocator's result for one function.
type Assignment struct {
	// Reg maps value -> physical register (int or FP number per the
	// value's class); -1 means spilled.
	Reg []int16
	// SpillSlot maps value -> spill slot index (-1 = none).
	SpillSlot []int32
	NumSpills int32
	// UsedInt/UsedFP list the allocated physical registers (for
	// callee-save in the prologue).
	UsedInt []uint8
	UsedFP  []uint8
}

// allocate runs linear scan for one register class pool.
func allocate(f *ir.Func, intPool, fpPool []uint8) *Assignment {
	ivs, _ := buildIntervals(f)
	as := &Assignment{
		Reg:       make([]int16, f.NumVals),
		SpillSlot: make([]int32, f.NumVals),
	}
	for i := range as.Reg {
		as.Reg[i] = -1
		as.SpillSlot[i] = -1
	}
	usedInt := map[uint8]bool{}
	usedFP := map[uint8]bool{}

	type active struct {
		iv  interval
		reg uint8
	}
	run := func(pool []uint8, wantFloat bool, used map[uint8]bool) {
		free := append([]uint8(nil), pool...)
		var act []active
		for _, iv := range ivs {
			if iv.isFloat != wantFloat {
				continue
			}
			// Expire finished intervals.
			keep := act[:0]
			for _, a := range act {
				if a.iv.end < iv.start {
					free = append(free, a.reg)
				} else {
					keep = append(keep, a)
				}
			}
			act = keep
			if len(free) > 0 {
				reg := free[0]
				free = free[1:]
				as.Reg[iv.val] = int16(reg)
				used[reg] = true
				act = append(act, active{iv: iv, reg: reg})
				continue
			}
			// Spill the least-busy live value (loop-depth-weighted
			// use count), so loop-invariant-but-hot values like the
			// Viterbi kernel's pointer parameters keep registers.
			victim := -1
			for i, a := range act {
				if victim == -1 || a.iv.uses < act[victim].iv.uses {
					victim = i
				}
			}
			if victim >= 0 && act[victim].iv.uses < iv.uses {
				v := act[victim]
				as.Reg[iv.val] = int16(v.reg)
				used[v.reg] = true
				as.Reg[v.iv.val] = -1
				as.SpillSlot[v.iv.val] = as.NumSpills
				as.NumSpills++
				act[victim] = active{iv: iv, reg: v.reg}
			} else {
				as.SpillSlot[iv.val] = as.NumSpills
				as.NumSpills++
			}
		}
	}
	run(intPool, false, usedInt)
	run(fpPool, true, usedFP)

	for r := range usedInt {
		as.UsedInt = append(as.UsedInt, r)
	}
	for r := range usedFP {
		as.UsedFP = append(as.UsedFP, r)
	}
	sort.Slice(as.UsedInt, func(i, j int) bool { return as.UsedInt[i] < as.UsedInt[j] })
	sort.Slice(as.UsedFP, func(i, j int) bool { return as.UsedFP[i] < as.UsedFP[j] })
	return as
}

// blockWeights approximates per-block loop depth from the lowering's
// block numbering: an edge from block b to an earlier (or same) block
// h is a backedge of a loop spanning [h, b]. Weight is 10^depth,
// capped.
func blockWeights(f *ir.Func) []int64 {
	depth := make([]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if s <= b.ID {
				for i := s; i <= b.ID; i++ {
					depth[i]++
				}
			}
		}
	}
	w := make([]int64, len(f.Blocks))
	for i, d := range depth {
		if d > 4 {
			d = 4
		}
		v := int64(1)
		for k := 0; k < d; k++ {
			v *= 10
		}
		w[i] = v
	}
	return w
}
