package isa

import "fmt"

// Builder assembles VRISC64 programs by hand, mainly for tests and
// microbenchmark kernels. It supports forward label references.
type Builder struct {
	name    string
	insts   []Inst
	labels  map[string]int32
	fixups  map[string][]int32 // label -> instruction indices needing Target
	symbols []Symbol
	nextAdr uint64
	errs    []error
}

// NewBuilder returns an empty program builder.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  make(map[string]int32),
		fixups:  make(map[string][]int32),
		nextAdr: DataBase,
	}
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate label %q", name))
		return
	}
	b.labels[name] = int32(len(b.insts))
}

// Global reserves size bytes in the data segment and returns the
// symbol's base address.
func (b *Builder) Global(name string, size uint64, elem int, isFP bool) uint64 {
	addr := (b.nextAdr + 7) &^ 7
	b.symbols = append(b.symbols, Symbol{Name: name, Addr: addr, Size: size, Elem: elem, IsFP: isFP})
	b.nextAdr = addr + size
	return addr
}

// Emit appends a raw instruction and returns its index.
func (b *Builder) Emit(in Inst) int32 {
	b.insts = append(b.insts, in)
	return int32(len(b.insts) - 1)
}

// Op3 emits a three-register ALU instruction.
func (b *Builder) Op3(op Op, rd, ra, rb uint8) { b.Emit(Inst{Op: op, Rd: rd, Ra: ra, Rb: rb}) }

// OpI emits an ALU instruction with an immediate second operand.
func (b *Builder) OpI(op Op, rd, ra uint8, imm int64) {
	b.Emit(Inst{Op: op, Rd: rd, Ra: ra, HasImm: true, Imm: imm})
}

// Ldiq emits a load-immediate.
func (b *Builder) Ldiq(rd uint8, imm int64) { b.Emit(Inst{Op: OpLdiq, Rd: rd, HasImm: true, Imm: imm}) }

// Load emits a load: rd <- mem[ra+off].
func (b *Builder) Load(op Op, rd, ra uint8, off int64) {
	b.Emit(Inst{Op: op, Rd: rd, Ra: ra, HasImm: true, Imm: off})
}

// Store emits a store: mem[ra+off] <- rb.
func (b *Builder) Store(op Op, rb, ra uint8, off int64) {
	b.Emit(Inst{Op: op, Rb: rb, Ra: ra, HasImm: true, Imm: off})
}

// Branch emits a branch to the (possibly forward) label.
func (b *Builder) Branch(op Op, ra uint8, label string) {
	idx := b.Emit(Inst{Op: op, Ra: ra, Target: -1})
	if t, ok := b.labels[label]; ok {
		b.insts[idx].Target = t
	} else {
		b.fixups[label] = append(b.fixups[label], idx)
	}
}

// Jsr emits a call to label, saving the return PC in rd.
func (b *Builder) Jsr(rd uint8, label string) {
	idx := b.Emit(Inst{Op: OpJsr, Rd: rd, Target: -1})
	if t, ok := b.labels[label]; ok {
		b.insts[idx].Target = t
	} else {
		b.fixups[label] = append(b.fixups[label], idx)
	}
}

// Ret emits an indirect jump through ra.
func (b *Builder) Ret(ra uint8) { b.Emit(Inst{Op: OpRet, Ra: ra}) }

// Print emits a PRINT of integer register ra.
func (b *Builder) Print(ra uint8) { b.Emit(Inst{Op: OpPrint, Ra: ra}) }

// Halt emits a HALT.
func (b *Builder) Halt() { b.Emit(Inst{Op: OpHalt}) }

// Program resolves labels and returns the finished program.
func (b *Builder) Program() (*Program, error) {
	for label, idxs := range b.fixups {
		t, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q", label)
		}
		for _, i := range idxs {
			b.insts[i].Target = t
		}
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	p := &Program{
		Name:    b.name,
		Insts:   b.insts,
		Entry:   0,
		DataEnd: b.nextAdr,
		Files:   []string{b.name + ".s"},
		Symbols: b.symbols,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustProgram is Program, panicking on error (test helper).
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}
