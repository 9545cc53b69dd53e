package isa

// FPBase is where the floating-point registers start in the unified
// register index Operands reports: integer register r is r, FP
// register f is FPBase+f. The unified index spans
// NumIntRegs+NumFPRegs registers.
const FPBase = NumIntRegs

// regFile names the register file an operand field refers to.
type regFile uint8

const (
	noReg regFile = iota // the field is not an operand
	intReg
	fpReg
)

// operandSpec is the register dataflow of one opcode: the file each of
// Ra and Rb is read from and Rd is written to.
type operandSpec struct {
	ra, rb, rd regFile
	// immB: Rb is replaced by Imm when the instruction HasImm.
	immB bool
	// rdRead: the old Rd is also read (a conditional move keeps it when
	// its condition fails).
	rdRead bool
}

var (
	intALU   = operandSpec{ra: intReg, rb: intReg, rd: intReg, immB: true}
	cmov     = operandSpec{ra: intReg, rb: intReg, rd: intReg, rdRead: true}
	intLoad  = operandSpec{ra: intReg, rd: intReg}
	intStore = operandSpec{ra: intReg, rb: intReg}
	fpALU    = operandSpec{ra: fpReg, rb: fpReg, rd: fpReg}
	fpCmp    = operandSpec{ra: fpReg, rb: fpReg, rd: intReg}
	fpUnary  = operandSpec{ra: fpReg, rd: fpReg}
	testRa   = operandSpec{ra: intReg}
)

// operandTable is the one place an opcode's register reads and write
// are stated. The timing model's dependences and the characterization's
// load-to-branch and branch-to-load machines all read it through
// Operands. NOP, BR and HALT have no register operands.
var operandTable = [numOps]operandSpec{
	OpAdd: intALU, OpSub: intALU, OpMul: intALU, OpDiv: intALU,
	OpRem: intALU, OpAnd: intALU, OpOr: intALU, OpXor: intALU,
	OpSll: intALU, OpSrl: intALU, OpSra: intALU, OpCmpEq: intALU,
	OpCmpLt: intALU, OpCmpLe: intALU, OpCmpUlt: intALU, OpS8Add: intALU,

	OpLda:  {ra: intReg, rd: intReg},
	OpLdiq: {rd: intReg},

	OpCmovEq: cmov, OpCmovNe: cmov, OpCmovLt: cmov,
	OpCmovLe: cmov, OpCmovGt: cmov, OpCmovGe: cmov,

	OpLdq: intLoad, OpLdbu: intLoad, OpLdt: {ra: intReg, rd: fpReg},
	OpStq: intStore, OpStb: intStore, OpStt: {ra: intReg, rb: fpReg},

	OpAddt: fpALU, OpSubt: fpALU, OpMult: fpALU, OpDivt: fpALU,
	OpCmpTeq: fpCmp, OpCmpTlt: fpCmp, OpCmpTle: fpCmp,
	OpCvtQT: {ra: intReg, rd: fpReg},
	OpCvtTQ: {ra: fpReg, rd: intReg},
	OpFMov:  fpUnary, OpFNeg: fpUnary,

	OpBeq: testRa, OpBne: testRa, OpBlt: testRa,
	OpBle: testRa, OpBgt: testRa, OpBge: testRa,
	OpJsr: {rd: intReg},
	OpRet: testRa,

	OpPrint:  testRa,
	OpPrintF: {ra: fpReg},
}

// unified returns r's index in the unified register file, or -1 when
// the field is not an operand or names a hard-wired zero register,
// which is always ready and never holds a value.
func unified(f regFile, r uint8) int {
	switch {
	case f == intReg && r != RZero:
		return int(r)
	case f == fpReg && r != FZero:
		return FPBase + int(r)
	}
	return -1
}

// Operands returns the registers in reads (the first n entries, in
// Ra, Rb, old-Rd order) and the register it writes (-1 if none), in
// the unified index (see FPBase). The zero registers are never
// reported; unused read slots hold RZero, which no instruction writes,
// so a consumer may take a maximum over all three slots without n.
func (in *Inst) Operands() (reads [3]uint8, n int, write int) {
	s := &operandTable[in.Op]
	reads = [3]uint8{RZero, RZero, RZero}
	read := func(f regFile, r uint8) {
		if u := unified(f, r); u >= 0 {
			reads[n] = uint8(u)
			n++
		}
	}
	read(s.ra, in.Ra)
	if !s.immB || !in.HasImm {
		read(s.rb, in.Rb)
	}
	if s.rdRead {
		read(s.rd, in.Rd)
	}
	return reads, n, unified(s.rd, in.Rd)
}
