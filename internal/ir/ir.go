// Package ir defines the MiniC compiler's intermediate representation
// — three-address code over virtual registers in a control-flow graph
// — together with the optimization passes that give the toolchain its
// "-O3" behaviour: constant folding, local value numbering (CSE +
// redundant load elimination), copy propagation, dead-code
// elimination, CMOV if-conversion, and local list scheduling with
// conservative memory disambiguation.
//
// The last two passes carry the paper's mechanism. If-conversion only
// fires when a guarded assignment targets a register (the paper's
// transformed code), never when the THEN clause stores to memory (the
// paper's original code). The scheduler may hoist a load above a store
// only when the two provably access distinct objects; loads through
// pointer parameters can never be disambiguated from stores through
// other pointer parameters — exactly the "culprit" the paper
// identifies in Section 2.2.2.
package ir

import "fmt"

// Value is a virtual register id. NoValue means "none".
type Value int32

// NoValue marks an absent operand or destination.
const NoValue Value = -1

// Op enumerates IR operations.
type Op uint8

// IR operations.
const (
	OpNop Op = iota

	OpConstI // Dst = Imm
	OpConstF // Dst = FImm
	OpMove   // Dst = A (same class)

	// Integer ALU: Dst = A op B.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // arithmetic
	// OpS8Add: Dst = A*8 + B (array indexing; Alpha s8addq).
	OpS8Add

	// Integer compares: Dst(int) = A op B.
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE

	// Float ALU.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg // Dst = -A

	// Float compares: Dst(int) = A op B.
	OpFCmpEQ
	OpFCmpNE
	OpFCmpLT
	OpFCmpLE
	OpFCmpGT
	OpFCmpGE

	OpCvtIF // Dst(float) = float(A)
	OpCvtFI // Dst(int) = int(A)

	// Memory: address is A + Off. Width is 1 or 8; FloatMem marks
	// float64 element accesses. Region is the alias class.
	OpLoad  // Dst = mem[A+Off]
	OpStore // mem[A+Off] = B

	// OpFrameAddr: Dst = address of frame slot Sym (a local array).
	OpFrameAddr

	// OpCall: Dst (may be NoValue) = call function Sym with Args.
	OpCall

	// OpCMov: if A != 0 then Dst = B else Dst keeps its value. Dst
	// is therefore also a source. Produced by if-conversion; CC
	// selects the original comparison sense for codegen fusion.
	OpCMov

	OpPrint // print A (int or float per operand class)

	// Terminators.
	OpJump   // goto True
	OpBranch // if A != 0 goto True else goto False
	OpRet    // return A (or NoValue)
)

var opNames = [...]string{
	OpNop: "nop", OpConstI: "consti", OpConstF: "constf", OpMove: "move",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpS8Add: "s8add",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLT: "cmplt",
	OpCmpLE: "cmple", OpCmpGT: "cmpgt", OpCmpGE: "cmpge",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg:   "fneg",
	OpFCmpEQ: "fcmpeq", OpFCmpNE: "fcmpne", OpFCmpLT: "fcmplt",
	OpFCmpLE: "fcmple", OpFCmpGT: "fcmpgt", OpFCmpGE: "fcmpge",
	OpCvtIF: "cvtif", OpCvtFI: "cvtfi",
	OpLoad: "load", OpStore: "store", OpFrameAddr: "frameaddr",
	OpCall: "call", OpCMov: "cmov", OpPrint: "print",
	OpJump: "jump", OpBranch: "branch", OpRet: "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("irop(%d)", uint8(o))
}

// RegionKind classifies what object a memory access touches, for
// static disambiguation.
type RegionKind uint8

// Region kinds.
const (
	// RegionUnknown may alias anything.
	RegionUnknown RegionKind = iota
	// RegionGlobal is a named global object (ID = global index).
	RegionGlobal
	// RegionStack is a local array frame slot (ID = slot index).
	RegionStack
	// RegionParam is memory reached through a pointer parameter
	// (ID = parameter index). Pointer parameters may point to any
	// global, any caller stack slot, or the same object as another
	// pointer parameter — so they disambiguate against nothing.
	// This is the conservatism that defeats compiler load hoisting
	// in the paper.
	RegionParam
)

// Region is the alias class of one memory access.
type Region struct {
	Kind RegionKind
	ID   int32
}

func (r Region) String() string {
	switch r.Kind {
	case RegionGlobal:
		return fmt.Sprintf("g%d", r.ID)
	case RegionStack:
		return fmt.Sprintf("s%d", r.ID)
	case RegionParam:
		return fmt.Sprintf("p%d", r.ID)
	default:
		return "?"
	}
}

// NoAlias reports whether two accesses with these regions provably
// never overlap. Anything involving a pointer parameter or an unknown
// region may alias.
func NoAlias(a, b Region) bool {
	switch {
	case a.Kind == RegionGlobal && b.Kind == RegionGlobal:
		return a.ID != b.ID
	case a.Kind == RegionStack && b.Kind == RegionStack:
		return a.ID != b.ID
	case a.Kind == RegionGlobal && b.Kind == RegionStack,
		a.Kind == RegionStack && b.Kind == RegionGlobal:
		return true
	default:
		return false
	}
}

// Instr is one IR instruction. Branch-style fields live inline to keep
// the representation flat.
type Instr struct {
	Op       Op
	Dst      Value
	A, B     Value
	Imm      int64
	FImm     float64
	Off      int64
	Width    uint8 // memory access bytes (1 or 8)
	FloatMem bool  // float64 memory element
	Region   Region
	Sym      int32   // call target index / frame slot / global index
	Args     []Value // call arguments
	Line     int32
	True     int32 // Jump/Branch target block
	False    int32 // Branch fall-through block
}

// IsTerm reports whether the op ends a basic block.
func (i *Instr) IsTerm() bool {
	return i.Op == OpJump || i.Op == OpBranch || i.Op == OpRet
}

// HasSideEffects reports whether the instruction must be preserved
// even if its result is unused.
func (i *Instr) HasSideEffects() bool {
	switch i.Op {
	case OpStore, OpCall, OpPrint, OpJump, OpBranch, OpRet:
		return true
	case OpDiv, OpRem:
		return true // may trap on zero divisor
	}
	return false
}

// IsPure reports whether the instruction only computes a register
// value from register values (no memory, no traps, no control).
func (i *Instr) IsPure() bool {
	switch i.Op {
	case OpConstI, OpConstF, OpMove, OpAdd, OpSub, OpMul,
		OpAnd, OpOr, OpXor, OpShl, OpShr, OpS8Add,
		OpCmpEQ, OpCmpNE, OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE,
		OpFAdd, OpFSub, OpFMul, OpFNeg,
		OpFCmpEQ, OpFCmpNE, OpFCmpLT, OpFCmpLE, OpFCmpGT, OpFCmpGE,
		OpCvtIF, OpCvtFI, OpFrameAddr, OpCMov:
		return true
	}
	return false
}

// Uses appends the values the instruction reads to buf and returns it.
func (i *Instr) Uses(buf []Value) []Value {
	add := func(v Value) {
		if v != NoValue {
			buf = append(buf, v)
		}
	}
	switch i.Op {
	case OpConstI, OpConstF, OpFrameAddr, OpJump, OpNop:
	case OpCall:
		for _, a := range i.Args {
			add(a)
		}
	case OpCMov:
		add(i.A)
		add(i.B)
		add(i.Dst) // old value flows through
	case OpStore:
		add(i.A)
		add(i.B)
	default:
		add(i.A)
		add(i.B)
	}
	return buf
}

// Block is a basic block: straight-line instructions plus one
// terminator.
type Block struct {
	ID     int32
	Instrs []Instr
	Term   Instr
}

// Succs returns the successor block ids.
func (b *Block) Succs() []int32 {
	switch b.Term.Op {
	case OpJump:
		return []int32{b.Term.True}
	case OpBranch:
		return []int32{b.Term.True, b.Term.False}
	default:
		return nil
	}
}

// ParamInfo describes one function parameter's IR binding.
type ParamInfo struct {
	Val     Value
	IsFloat bool
	IsPtr   bool
	Name    string
}

// FrameSlot is a local array allocated in the stack frame.
type FrameSlot struct {
	Size int64 // bytes
	Name string
}

// Func is one function in IR form.
type Func struct {
	Name     string
	Params   []ParamInfo
	RetFloat bool
	HasRet   bool
	Blocks   []*Block
	NumVals  int32
	IsFloat  []bool // per-Value register class
	Frame    []FrameSlot
	Line     int32
}

// NewValue allocates a fresh virtual register of the given class.
func (f *Func) NewValue(isFloat bool) Value {
	v := Value(f.NumVals)
	f.NumVals++
	f.IsFloat = append(f.IsFloat, isFloat)
	return v
}

// NewBlock appends an empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: int32(len(f.Blocks))}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Program is a whole compilation unit in IR form.
type Program struct {
	Name  string
	Funcs []*Func
	// FuncIndex maps names to Funcs indices (call targets use it).
	FuncIndex map[string]int32
	// GlobalAddrs and GlobalSyms mirror the data-segment layout
	// decided before lowering.
	GlobalNames []string
}

// String renders the function for debugging and golden tests.
func (f *Func) String() string {
	s := fmt.Sprintf("func %s (%d vals)\n", f.Name, f.NumVals)
	for _, b := range f.Blocks {
		s += fmt.Sprintf("b%d:\n", b.ID)
		for i := range b.Instrs {
			s += "  " + instrString(&b.Instrs[i]) + "\n"
		}
		s += "  " + instrString(&b.Term) + "\n"
	}
	return s
}

func instrString(i *Instr) string {
	switch i.Op {
	case OpConstI:
		return fmt.Sprintf("v%d = %d", i.Dst, i.Imm)
	case OpConstF:
		return fmt.Sprintf("v%d = %g", i.Dst, i.FImm)
	case OpMove:
		return fmt.Sprintf("v%d = v%d", i.Dst, i.A)
	case OpLoad:
		return fmt.Sprintf("v%d = load.%d [v%d+%d] %s", i.Dst, i.Width, i.A, i.Off, i.Region)
	case OpStore:
		return fmt.Sprintf("store.%d [v%d+%d] = v%d %s", i.Width, i.A, i.Off, i.B, i.Region)
	case OpFrameAddr:
		return fmt.Sprintf("v%d = frameaddr %d", i.Dst, i.Sym)
	case OpCall:
		return fmt.Sprintf("v%d = call f%d %v", i.Dst, i.Sym, i.Args)
	case OpCMov:
		return fmt.Sprintf("v%d = cmov v%d ? v%d", i.Dst, i.A, i.B)
	case OpPrint:
		return fmt.Sprintf("print v%d", i.A)
	case OpJump:
		return fmt.Sprintf("jump b%d", i.True)
	case OpBranch:
		return fmt.Sprintf("branch v%d ? b%d : b%d", i.A, i.True, i.False)
	case OpRet:
		if i.A == NoValue {
			return "ret"
		}
		return fmt.Sprintf("ret v%d", i.A)
	default:
		return fmt.Sprintf("v%d = %s v%d, v%d", i.Dst, i.Op, i.A, i.B)
	}
}

// Validate checks structural invariants of the function.
func (f *Func) Validate() error {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.IsTerm() {
				return fmt.Errorf("ir: %s b%d: terminator %s in body", f.Name, b.ID, in.Op)
			}
			if err := f.checkVals(in); err != nil {
				return fmt.Errorf("ir: %s b%d: %v", f.Name, b.ID, err)
			}
		}
		if !b.Term.IsTerm() {
			return fmt.Errorf("ir: %s b%d: missing terminator", f.Name, b.ID)
		}
		for _, s := range b.Succs() {
			if s < 0 || int(s) >= len(f.Blocks) {
				return fmt.Errorf("ir: %s b%d: bad successor b%d", f.Name, b.ID, s)
			}
		}
	}
	return nil
}

func (f *Func) checkVals(in *Instr) error {
	check := func(v Value) error {
		if v != NoValue && (v < 0 || int32(v) >= f.NumVals) {
			return fmt.Errorf("%s: value v%d out of range", in.Op, v)
		}
		return nil
	}
	var buf [3]Value
	for _, v := range in.Uses(buf[:0]) {
		if err := check(v); err != nil {
			return err
		}
	}
	return check(in.Dst)
}
