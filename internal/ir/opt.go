package ir

import (
	"fmt"
	"math"
	"slices"
)

// OptOptions selects which passes run. The defaults via O2() mirror
// the paper's "-O3" baseline: everything on. The paper's analysis
// depends on two of these specifically: IfConvert (short register-only
// IF bodies become conditional moves, which only the load-transformed
// sources expose) and Schedule (local list scheduling that may hoist a
// load above a store only with proof of no-alias).
type OptOptions struct {
	Fold      bool // constant folding + algebraic simplification + LVN/CSE
	DCE       bool // global dead-code elimination
	IfConvert bool // CMOV if-conversion of short register-only THEN clauses
	Schedule  bool // local list scheduling with memory disambiguation
	// MaxIfConvert bounds the THEN-clause size eligible for
	// if-conversion (instructions after lowering).
	MaxIfConvert int
	// PressureLimit caps how many simultaneously-live block-local
	// values the scheduler will tolerate before it switches from
	// latency priority to pressure reduction; 0 means the default
	// (16). A register-scarce target (Pentium 4) compiles with a
	// lower limit.
	PressureLimit int
	// GlobalHoist enables triangle load hoisting across basic blocks
	// (the paper's Figure 5 transformation). It is on at O2 but
	// usually blocked by the conservative alias analysis — which is
	// the paper's point.
	GlobalHoist bool
	// RestrictParams assumes pointer parameters are pairwise
	// non-overlapping and distinct from named objects, like declaring
	// every pointer parameter `restrict` (the paper's Itanium
	// experiment). It unblocks GlobalHoist and the scheduler across
	// parameter stores. Unsound for programs that alias their
	// arguments — exactly as in C.
	RestrictParams bool
}

// O0 disables all optimization.
func O0() OptOptions { return OptOptions{} }

// O2 enables the full pipeline (the paper's -O3 analog).
func O2() OptOptions {
	return OptOptions{Fold: true, DCE: true, IfConvert: true, Schedule: true,
		GlobalHoist: true, MaxIfConvert: 4}
}

// defaultPressureLimit caps scheduler run-ahead at six in-flight
// block-local values. The hot kernels keep ~20 loop-carried values
// (pointer parameters, accumulators) in the ~28 allocatable registers,
// so only a handful remain for scheduling temporaries; a larger limit
// lets the scheduler create spill traffic that devours the latency it
// hides (measured directly on the hmmsearch kernel).
const defaultPressureLimit = 6

// Optimize runs the selected passes over the function in place.
func Optimize(f *Func, opts OptOptions) {
	if opts.Fold {
		for _, b := range f.Blocks {
			lvnBlock(f, b)
		}
	}
	if opts.IfConvert {
		ifConvert(f, opts.MaxIfConvert)
		if opts.Fold {
			for _, b := range f.Blocks {
				lvnBlock(f, b)
			}
		}
	}
	if opts.GlobalHoist {
		globalHoistLoads(f, opts.RestrictParams)
		if opts.Fold {
			for _, b := range f.Blocks {
				lvnBlock(f, b)
			}
		}
	}
	if opts.DCE {
		deadCodeElim(f)
		deadDefElim(f)
	}
	if opts.Schedule {
		limit := opts.PressureLimit
		if limit <= 0 {
			limit = defaultPressureLimit
		}
		for _, b := range f.Blocks {
			scheduleBlock(f, b, limit, opts.RestrictParams)
		}
	}
}

// --- Local value numbering: CSE, copy propagation, constant folding ---

type lvnState struct {
	f        *Func
	vnNext   int
	vnOf     map[Value]int
	homeOf   map[int]Value
	exprVN   map[string]int
	constI   map[int]int64
	constF   map[int]float64
	memEpoch int
}

func lvnBlock(f *Func, b *Block) {
	s := &lvnState{
		f:      f,
		vnOf:   make(map[Value]int),
		homeOf: make(map[int]Value),
		exprVN: make(map[string]int),
		constI: make(map[int]int64),
		constF: make(map[int]float64),
	}
	out := b.Instrs[:0]
	for i := range b.Instrs {
		in := b.Instrs[i]
		if s.process(&in) {
			out = append(out, in)
		}
	}
	b.Instrs = out
	// Rewrite terminator operand too.
	if b.Term.A != NoValue && (b.Term.Op == OpBranch || b.Term.Op == OpRet) {
		b.Term.A = s.canon(b.Term.A)
	}
}

func (s *lvnState) vn(v Value) int {
	if n, ok := s.vnOf[v]; ok {
		return n
	}
	s.vnNext++
	n := s.vnNext
	s.vnOf[v] = n
	s.homeOf[n] = v
	return n
}

// canon returns the canonical holder of v's value number, preferring
// an earlier value that still holds it (copy propagation).
func (s *lvnState) canon(v Value) Value {
	n := s.vn(v)
	if h, ok := s.homeOf[n]; ok && s.vnOf[h] == n {
		return h
	}
	return v
}

func (s *lvnState) newVN(dst Value) int {
	s.vnNext++
	n := s.vnNext
	s.vnOf[dst] = n
	s.homeOf[n] = dst
	return n
}

// process rewrites one instruction; it returns false to drop it.
func (s *lvnState) process(in *Instr) bool {
	// Rewrite sources to canonical holders.
	switch in.Op {
	case OpCall:
		for i, a := range in.Args {
			in.Args[i] = s.canon(a)
		}
		s.memEpoch++
		if in.Dst != NoValue {
			s.newVN(in.Dst)
		}
		return true
	case OpPrint:
		in.A = s.canon(in.A)
		s.memEpoch++
		return true
	case OpStore:
		in.A = s.canon(in.A)
		in.B = s.canon(in.B)
		s.memEpoch++
		return true
	case OpCMov:
		in.A = s.canon(in.A)
		in.B = s.canon(in.B)
		s.newVN(in.Dst)
		return true
	case OpNop:
		return false
	}
	if in.A != NoValue {
		in.A = s.canon(in.A)
	}
	if in.B != NoValue {
		in.B = s.canon(in.B)
	}

	switch in.Op {
	case OpConstI:
		key := fmt.Sprintf("ci %d", in.Imm)
		return s.lookupOrDefine(in, key, func(n int) { s.constI[n] = in.Imm })
	case OpConstF:
		key := fmt.Sprintf("cf %x", math.Float64bits(in.FImm))
		return s.lookupOrDefine(in, key, func(n int) { s.constF[n] = in.FImm })
	case OpMove:
		// Copy: destination shares the source's value number.
		n := s.vn(in.A)
		s.vnOf[in.Dst] = n
		if _, ok := s.homeOf[n]; !ok {
			s.homeOf[n] = in.A
		}
		return true
	case OpLoad:
		key := fmt.Sprintf("ld %d %d %d %d %v e%d",
			s.vn(in.A), in.Off, in.Width, in.Region.Kind, in.FloatMem, s.memEpoch)
		return s.lookupOrDefine(in, key, nil)
	case OpFrameAddr:
		key := fmt.Sprintf("fa %d", in.Sym)
		return s.lookupOrDefine(in, key, nil)
	}

	if !in.IsPure() && in.Op != OpDiv && in.Op != OpRem {
		s.newVN(in.Dst)
		return true
	}

	// Try constant folding.
	if folded, ok := s.fold(in); ok {
		*in = folded
		return s.process(in) // re-enter as const/move
	}

	// CSE on the (op, vn(a), vn(b)) key. Div/Rem participate: same
	// operands means same trap behaviour, so reuse is safe.
	key := fmt.Sprintf("%d %d %d", in.Op, s.vn(in.A), s.vnB(in))
	return s.lookupOrDefine(in, key, nil)
}

func (s *lvnState) vnB(in *Instr) int {
	if in.B == NoValue {
		return -1
	}
	return s.vn(in.B)
}

// lookupOrDefine replaces the instruction with a Move when the
// expression is available, otherwise defines a new value number.
func (s *lvnState) lookupOrDefine(in *Instr, key string, onDef func(n int)) bool {
	if n, ok := s.exprVN[key]; ok {
		if h, ok2 := s.homeOf[n]; ok2 && s.vnOf[h] == n {
			*in = Instr{Op: OpMove, Dst: in.Dst, A: h, B: NoValue, Line: in.Line}
			s.vnOf[in.Dst] = n
			return true
		}
	}
	n := s.newVN(in.Dst)
	s.exprVN[key] = n
	if onDef != nil {
		onDef(n)
	}
	return true
}

// fold attempts constant folding and algebraic simplification.
func (s *lvnState) fold(in *Instr) (Instr, bool) {
	aVN, bVN := -1, -1
	if in.A != NoValue {
		aVN = s.vn(in.A)
	}
	if in.B != NoValue {
		bVN = s.vn(in.B)
	}
	ca, aConst := s.constI[aVN]
	cb, bConst := s.constI[bVN]
	fa, aFConst := s.constF[aVN]
	fb, bFConst := s.constF[bVN]

	mkI := func(v int64) (Instr, bool) {
		return Instr{Op: OpConstI, Dst: in.Dst, A: NoValue, B: NoValue, Imm: v, Line: in.Line}, true
	}
	mkF := func(v float64) (Instr, bool) {
		return Instr{Op: OpConstF, Dst: in.Dst, A: NoValue, B: NoValue, FImm: v, Line: in.Line}, true
	}
	mkMove := func(src Value) (Instr, bool) {
		return Instr{Op: OpMove, Dst: in.Dst, A: src, B: NoValue, Line: in.Line}, true
	}

	switch in.Op {
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE:
		if aConst && bConst {
			return mkI(evalIntOp(in.Op, ca, cb))
		}
	case OpS8Add:
		if aConst && bConst {
			return mkI(ca*8 + cb)
		}
	case OpDiv, OpRem:
		if aConst && bConst && cb != 0 {
			return mkI(evalIntOp(in.Op, ca, cb))
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		if aFConst && bFConst {
			return mkF(evalFloatOp(in.Op, fa, fb))
		}
	case OpFCmpEQ, OpFCmpNE, OpFCmpLT, OpFCmpLE, OpFCmpGT, OpFCmpGE:
		if aFConst && bFConst {
			return mkI(evalFloatCmp(in.Op, fa, fb))
		}
	case OpFNeg:
		if aFConst {
			return mkF(-fa)
		}
	case OpCvtIF:
		if aConst {
			return mkF(float64(ca))
		}
	case OpCvtFI:
		if aFConst {
			return mkI(int64(fa))
		}
	}

	// Algebraic identities.
	switch in.Op {
	case OpAdd:
		if bConst && cb == 0 {
			return mkMove(in.A)
		}
		if aConst && ca == 0 {
			return mkMove(in.B)
		}
	case OpSub:
		if bConst && cb == 0 {
			return mkMove(in.A)
		}
	case OpMul:
		if bConst {
			switch {
			case cb == 0:
				return mkI(0)
			case cb == 1:
				return mkMove(in.A)
			case cb > 0 && cb&(cb-1) == 0:
				sh := int64(0)
				for v := cb; v > 1; v >>= 1 {
					sh++
				}
				shv := Instr{Op: OpShl, Dst: in.Dst, A: in.A, B: in.B, Line: in.Line}
				// Rewrite B's constant: reuse the const value by
				// noting the shift amount as a new const is not
				// available here, so only fold when cb==1/0;
				// power-of-two strength reduction is handled by
				// codegen's immediate forms instead.
				_ = sh
				_ = shv
			}
		}
		if aConst && ca == 0 {
			return mkI(0)
		}
		if aConst && ca == 1 {
			return mkMove(in.B)
		}
	case OpShl, OpShr:
		if bConst && cb == 0 {
			return mkMove(in.A)
		}
	case OpOr, OpXor:
		if bConst && cb == 0 {
			return mkMove(in.A)
		}
		if aConst && ca == 0 {
			return mkMove(in.B)
		}
	}
	return Instr{}, false
}

func evalIntOp(op Op, a, b int64) int64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return a / b
	case OpRem:
		return a % b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (uint64(b) & 63)
	case OpShr:
		return a >> (uint64(b) & 63)
	case OpCmpEQ:
		return b2i(a == b)
	case OpCmpNE:
		return b2i(a != b)
	case OpCmpLT:
		return b2i(a < b)
	case OpCmpLE:
		return b2i(a <= b)
	case OpCmpGT:
		return b2i(a > b)
	case OpCmpGE:
		return b2i(a >= b)
	}
	return 0
}

func evalFloatOp(op Op, a, b float64) float64 {
	switch op {
	case OpFAdd:
		return a + b
	case OpFSub:
		return a - b
	case OpFMul:
		return a * b
	case OpFDiv:
		return a / b
	}
	return 0
}

func evalFloatCmp(op Op, a, b float64) int64 {
	switch op {
	case OpFCmpEQ:
		return b2i(a == b)
	case OpFCmpNE:
		return b2i(a != b)
	case OpFCmpLT:
		return b2i(a < b)
	case OpFCmpLE:
		return b2i(a <= b)
	case OpFCmpGT:
		return b2i(a > b)
	case OpFCmpGE:
		return b2i(a >= b)
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// --- Global dead-code elimination ---

func deadCodeElim(f *Func) {
	for {
		used := make(map[Value]bool)
		var buf []Value
		mark := func(in *Instr) {
			buf = in.Uses(buf[:0])
			for _, v := range buf {
				used[v] = true
			}
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.HasSideEffects() || in.Dst == NoValue {
					mark(in)
				}
			}
			mark(&b.Term)
		}
		// Transitively mark operands of instructions defining used
		// values, iterating until stable within this round.
		for changed := true; changed; {
			changed = false
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Dst != NoValue && used[in.Dst] || in.HasSideEffects() {
						buf = in.Uses(buf[:0])
						for _, v := range buf {
							if !used[v] {
								used[v] = true
								changed = true
							}
						}
					}
				}
			}
		}
		removed := false
		for _, b := range f.Blocks {
			out := b.Instrs[:0]
			for i := range b.Instrs {
				in := b.Instrs[i]
				if in.Dst != NoValue && !in.HasSideEffects() && !used[in.Dst] {
					removed = true
					continue
				}
				out = append(out, in)
			}
			b.Instrs = out
		}
		if !removed {
			return
		}
	}
}

// --- CMOV if-conversion ---

// ifConvert turns
//
//	b:  ...; branch c ? T : F
//	T:  (<= max pure, int-destination instructions); jump F
//
// into straight-line code in b ending with conditional moves. This is
// exactly the transformation the compiler can apply to the paper's
// load-transformed sources ("if (temp2 > temp1) temp1 = temp2;") and
// can never apply to the originals, whose THEN clauses store to
// memory.
func ifConvert(f *Func, maxBody int) {
	if maxBody <= 0 {
		maxBody = 4
	}
	preds := countPreds(f)
	for _, b := range f.Blocks {
		if b.Term.Op != OpBranch {
			continue
		}
		t := f.Blocks[b.Term.True]
		joint := b.Term.False
		if t.ID == b.ID || int32(t.ID) == joint {
			continue
		}
		if preds[t.ID] != 1 || t.Term.Op != OpJump || t.Term.True != joint {
			continue
		}
		if len(t.Instrs) == 0 || len(t.Instrs) > maxBody {
			continue
		}
		ok := true
		for i := range t.Instrs {
			in := &t.Instrs[i]
			if !in.IsPure() || in.Op == OpCMov || in.Dst == NoValue || f.IsFloat[in.Dst] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cond := b.Term.A
		// Clone the body with fresh destinations, then cmov the
		// final value of each original destination.
		rename := make(map[Value]Value)
		finalOf := make(map[Value]Value)
		var order []Value
		for i := range t.Instrs {
			in := t.Instrs[i] // copy
			if in.A != NoValue {
				if nv, ok := rename[in.A]; ok {
					in.A = nv
				}
			}
			if in.B != NoValue {
				if nv, ok := rename[in.B]; ok {
					in.B = nv
				}
			}
			orig := in.Dst
			fresh := f.NewValue(false)
			rename[orig] = fresh
			in.Dst = fresh
			b.Instrs = append(b.Instrs, in)
			if _, seen := finalOf[orig]; !seen {
				order = append(order, orig)
			}
			finalOf[orig] = fresh
		}
		for _, orig := range order {
			b.Instrs = append(b.Instrs, Instr{
				Op: OpCMov, Dst: orig, A: cond, B: finalOf[orig],
				Line: b.Term.Line,
			})
		}
		b.Term = Instr{Op: OpJump, Dst: NoValue, A: NoValue, B: NoValue,
			True: joint, Line: b.Term.Line}
		// T is now unreachable; empty it.
		t.Instrs = nil
		preds[joint]-- // T no longer jumps there; b does instead (net same), keep counts safe
		preds[t.ID] = 0
	}
}

func countPreds(f *Func) []int {
	preds := make([]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s]++
		}
	}
	return preds
}

// --- Local list scheduling ---

// latencyOf gives scheduling priorities (not the timing model's
// latencies; these only shape the schedule the way a compiler's
// machine model would).
func latencyOf(op Op) int {
	switch op {
	case OpLoad:
		return 3
	case OpMul:
		return 7
	case OpDiv, OpRem:
		return 20
	case OpFAdd, OpFSub, OpFMul, OpCvtIF, OpCvtFI:
		return 4
	case OpFDiv:
		return 15
	default:
		return 1
	}
}

// memClass returns 0 for non-memory, 1 load, 2 store, 3 barrier.
func memClass(in *Instr) int {
	switch in.Op {
	case OpLoad:
		return 1
	case OpStore:
		return 2
	case OpCall, OpPrint:
		return 3
	case OpDiv, OpRem:
		// Potentially trapping: order against stores/barriers so a
		// trap cannot be reordered past visible effects.
		return 4
	}
	return 0
}

func scheduleBlock(f *Func, b *Block, pressureLimit int, restrict bool) {
	n := len(b.Instrs)
	if n < 2 {
		return
	}
	succs := make([][]int, n)
	npred := make([]int, n)
	addEdge := func(i, j int) {
		succs[i] = append(succs[i], j)
		npred[j]++
	}

	lastDef := make(map[Value]int)
	lastUses := make(map[Value][]int)
	var memOps []int
	var buf []Value
	for j := 0; j < n; j++ {
		in := &b.Instrs[j]
		buf = in.Uses(buf[:0])
		for _, u := range buf {
			if d, ok := lastDef[u]; ok {
				addEdge(d, j) // RAW
			}
			lastUses[u] = append(lastUses[u], j)
		}
		if in.Dst != NoValue {
			if d, ok := lastDef[in.Dst]; ok && d != j {
				addEdge(d, j) // WAW
			}
			for _, u := range lastUses[in.Dst] {
				if u != j {
					addEdge(u, j) // WAR
				}
			}
			lastUses[in.Dst] = nil
			lastDef[in.Dst] = j
		}
		mc := memClass(in)
		if mc != 0 {
			for _, i := range memOps {
				pm := memClass(&b.Instrs[i])
				switch {
				case pm == 3 || mc == 3:
					addEdge(i, j) // barriers order everything
				case pm == 4 || mc == 4:
					// Trapping ops order against stores and
					// barriers only.
					if pm == 2 || mc == 2 {
						addEdge(i, j)
					}
				case pm == 1 && mc == 1:
					// load-load: no edge
				default:
					// At least one store: need disambiguation.
					if mayAliasInstrR(&b.Instrs[i], &b.Instrs[j], restrict) {
						addEdge(i, j)
					}
				}
			}
			memOps = append(memOps, j)
		}
	}
	// Terminator dependence: every instruction must precede it; the
	// scheduler keeps Term in place, so nothing to add.

	// Priority: longest latency-weighted path to the end.
	height := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		h := 0
		for _, s := range succs[i] {
			if height[s] > h {
				h = height[s]
			}
		}
		height[i] = h + latencyOf(b.Instrs[i].Op)
	}

	// Remaining in-block use counts, for pressure tracking: a value
	// "dies" when its last in-block use is scheduled; values also
	// used outside the block never die here (conservative).
	remaining := make(map[Value]int)
	escapes := make(map[Value]bool)
	defined := make(map[Value]int)
	var ubuf []Value
	for j := 0; j < n; j++ {
		in := &b.Instrs[j]
		ubuf = in.Uses(ubuf[:0])
		for _, u := range ubuf {
			remaining[u]++
		}
		if in.Dst != NoValue {
			defined[in.Dst] = j
		}
	}
	ubuf = b.Term.Uses(ubuf[:0])
	for _, u := range ubuf {
		escapes[u] = true
	}
	// Values defined here might be live-out; without global liveness
	// at this point, treat every defined value as escaping unless it
	// is consumed in-block at least once. (Loads/temps in straight
	// lines are consumed; user variables spanning blocks escape.)
	pressure := 0

	// netEffect estimates the pressure change from scheduling j.
	var lbuf []Value
	netEffect := func(j int, rem map[Value]int) int {
		in := &b.Instrs[j]
		net := 0
		if in.Dst != NoValue {
			net++
		}
		lbuf = in.Uses(lbuf[:0])
		for k, u := range lbuf {
			if slices.Contains(lbuf[:k], u) {
				continue // counted at its first use
			}
			if rem[u] == 1 && !escapes[u] {
				if _, here := defined[u]; here {
					net--
				}
			}
		}
		return net
	}

	// List scheduling: below the pressure limit pick max height
	// (loads first on ties); above it, prefer pressure-reducing
	// picks.
	scheduled := make([]Instr, 0, n)
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if npred[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(scheduled) < n {
		best := -1
		bestNet := 0
		for _, c := range ready {
			if best == -1 {
				best = c
				bestNet = netEffect(c, remaining)
				continue
			}
			hb, hc := height[best], height[c]
			if pressure >= pressureLimit {
				nc := netEffect(c, remaining)
				if nc < bestNet || (nc == bestNet && hc > hb) ||
					(nc == bestNet && hc == hb && c < best) {
					best = c
					bestNet = nc
				}
				continue
			}
			if hc > hb {
				best = c
				bestNet = netEffect(c, remaining)
				continue
			}
			if hc == hb {
				cb, cc := b.Instrs[best].Op == OpLoad, b.Instrs[c].Op == OpLoad
				if (cc && !cb) || (cb == cc && c < best) {
					best = c
					bestNet = netEffect(c, remaining)
				}
			}
		}
		// Remove best from ready.
		for i, c := range ready {
			if c == best {
				ready = append(ready[:i], ready[i+1:]...)
				break
			}
		}
		in := &b.Instrs[best]
		ubuf = in.Uses(ubuf[:0])
		for _, u := range ubuf {
			remaining[u]--
			if remaining[u] == 0 && !escapes[u] {
				if _, here := defined[u]; here {
					pressure--
				}
			}
		}
		if in.Dst != NoValue {
			pressure++
		}
		scheduled = append(scheduled, *in)
		for _, s := range succs[best] {
			npred[s]--
			if npred[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	b.Instrs = scheduled
}
