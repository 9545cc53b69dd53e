package isa_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// regState is the architectural register file in the unified index
// Operands reports: integer registers, then FP registers from FPBase
// as float64 bits.
type regState [isa.NumIntRegs + isa.NumFPRegs]uint64

func isZeroReg(u int) bool { return u == isa.RZero || u == isa.FPBase+isa.FZero }

// outcome is everything one instruction's reads can decide: the value
// it writes, its control transfer, its effective address, what it
// stores and prints, and whether it traps.
type outcome struct {
	written uint64
	taken   bool
	target  int32
	addr    uint64
	stored  uint64
	ints    []int64
	fps     []float64
	trapped bool
}

// memLo..memHi is the address window the test's register values and
// immediates reach; it is filled with random bytes so a load's value
// depends on its address.
const memLo, memHi = -32, 160

// execute runs in alone on the interpreter (a one-instruction fuel
// budget stops it before the next fetch) from regs over mem, and
// returns its outcome and the registers it leaves.
func execute(t *testing.T, in isa.Inst, regs regState, mem []byte) (outcome, regState) {
	t.Helper()
	prog := &isa.Program{Name: "op", Insts: []isa.Inst{in, {Op: isa.OpHalt}}}
	m, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range mem {
		m.Mem.StoreByte(uint64(int64(memLo+i)), b)
	}
	for r := range isa.NumIntRegs {
		m.R[r] = int64(regs[r])
	}
	for f := range isa.NumFPRegs {
		m.F[f] = math.Float64frombits(regs[isa.FPBase+f])
	}
	var ev sim.Event
	m.AddBatchObserver(batchFunc(func(evs []sim.Event) { ev = evs[0] }))
	m.Fuel = 1
	res, err := m.Run()
	o := outcome{taken: ev.Taken, target: ev.Target, addr: ev.Addr, ints: res.IntOutput, fps: res.FPOutput}
	if err != nil && !errors.Is(err, sim.ErrFuelExhausted) {
		var trap *sim.Trap
		if !errors.As(err, &trap) {
			t.Fatalf("%s: %v", in, err)
		}
		o.trapped = true
	}
	var after regState
	for r := range isa.NumIntRegs {
		after[r] = uint64(m.R[r])
	}
	for f := range isa.NumFPRegs {
		after[isa.FPBase+f] = math.Float64bits(m.F[f])
	}
	if _, _, w := in.Operands(); w >= 0 {
		o.written = after[w]
	}
	if isa.IsStore(in.Op) {
		o.stored = m.Mem.ReadUint64(ev.Addr)
		if isa.MemWidth(in.Op) == 1 {
			o.stored &= 0xff
		}
	}
	return o, after
}

type batchFunc func([]sim.Event)

func (f batchFunc) ObserveBatch(evs []sim.Event) { f(evs) }

// randomReg returns a register number, the zero register one time in
// eight.
func randomReg(rng *rand.Rand) uint8 {
	if rng.Intn(8) == 0 {
		return isa.RZero
	}
	return uint8(rng.Intn(isa.NumIntRegs))
}

// randomValue returns a value for unified register u: small integers
// (so branch and move conditions go both ways and addresses stay in
// the filled window) or small floats, zero for the zero registers.
func randomValue(rng *rand.Rand, u int) uint64 {
	switch {
	case isZeroReg(u):
		return 0
	case u < isa.FPBase:
		return uint64(rng.Int63n(32) - 16)
	}
	return math.Float64bits(float64(rng.Intn(33)-16) / 4)
}

// TestOperandsMatchInterpreter pins Operands to the interpreter, an
// independent statement of every opcode's semantics: for random
// instructions and register contents, executing an instruction changes
// no register but the one Operands says it writes, and perturbing any
// register outside its reads changes neither the written value, the
// branch outcome and target, the effective address, the stored or
// printed value, nor whether it traps.
func TestOperandsMatchInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	mem := make([]byte, memHi-memLo)
	rng.Read(mem)
	const trials = 8
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		for trial := 0; trial < trials; trial++ {
			in := isa.Inst{
				Op: op, Rd: randomReg(rng), Ra: randomReg(rng), Rb: randomReg(rng),
				HasImm: rng.Intn(2) == 0, Imm: rng.Int63n(128) - 8, Target: 1,
			}
			var regs regState
			for u := range regs {
				regs[u] = randomValue(rng, u)
			}
			base, after := execute(t, in, regs, mem)
			reads, n, write := in.Operands()
			for u := range regs {
				if u != write && after[u] != regs[u] {
					t.Fatalf("%s: register %d changed, but Operands reports write %d", in, u, write)
				}
			}
			if base.trapped {
				continue // a trap writes nothing; its cause is a read
			}
			for u := range regs {
				if isZeroReg(u) || slices.Contains(reads[:n], uint8(u)) {
					continue
				}
				p := regs
				for p[u] == regs[u] {
					p[u] = randomValue(rng, u)
				}
				if got, _ := execute(t, in, p, mem); !equalOutcome(got, base) {
					t.Fatalf("%s: register %d is read (outcome %+v, perturbed %+v), but Operands reports reads %v",
						in, u, base, got, reads[:n])
				}
			}
		}
	}
}

func equalOutcome(a, b outcome) bool {
	return a.written == b.written && a.taken == b.taken && a.target == b.target &&
		a.addr == b.addr && a.stored == b.stored && a.trapped == b.trapped &&
		slices.Equal(a.ints, b.ints) &&
		slices.EqualFunc(a.fps, b.fps, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestOperandsNoSilentDefault: every opcode states its operands. Only
// the integer ALU ops read Ra and Rb into Rd, and only NOP, BR and
// HALT have no register operands, so a new opcode left out of the
// operand table, or given the integer-ALU shape without being one,
// fails here.
func TestOperandsNoSilentDefault(t *testing.T) {
	alu := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpAnd,
		isa.OpOr, isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpCmpEq,
		isa.OpCmpLt, isa.OpCmpLe, isa.OpCmpUlt, isa.OpS8Add,
	}
	none := []isa.Op{isa.OpNop, isa.OpBr, isa.OpHalt}
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		in := isa.Inst{Op: op, Rd: 1, Ra: 2, Rb: 3}
		reads, n, write := in.Operands()
		aluShape := n == 2 && reads == [3]uint8{2, 3, isa.RZero} && write == 1
		if aluShape != slices.Contains(alu, op) {
			t.Errorf("%s: integer-ALU shape %v (reads %v, write %d)", op, aluShape, reads[:n], write)
		}
		if empty := n == 0 && write < 0; empty != slices.Contains(none, op) {
			t.Errorf("%s: no register operands = %v", op, empty)
		}
	}
}

// TestOperandsPadAndSkipZero: unused read slots hold RZero, and the
// zero registers are never reported as read or written.
func TestOperandsPadAndSkipZero(t *testing.T) {
	cases := []struct {
		in    isa.Inst
		reads [3]uint8
		n     int
		write int
	}{
		{isa.Inst{Op: isa.OpCmovNe, Rd: 4, Ra: 5, Rb: 6}, [3]uint8{5, 6, 4}, 3, 4},
		{isa.Inst{Op: isa.OpAdd, Rd: 4, Ra: 5, Rb: 6, HasImm: true}, [3]uint8{5, isa.RZero, isa.RZero}, 1, 4},
		{isa.Inst{Op: isa.OpAdd, Rd: isa.RZero, Ra: isa.RZero, Rb: 6}, [3]uint8{6, isa.RZero, isa.RZero}, 1, -1},
		{isa.Inst{Op: isa.OpStt, Ra: 2, Rb: 7}, [3]uint8{2, isa.FPBase + 7, isa.RZero}, 2, -1},
		{isa.Inst{Op: isa.OpAddt, Rd: 1, Ra: isa.FZero, Rb: 3}, [3]uint8{isa.FPBase + 3, isa.RZero, isa.RZero}, 1, isa.FPBase + 1},
		{isa.Inst{Op: isa.OpLdt, Rd: isa.FZero, Ra: 2}, [3]uint8{2, isa.RZero, isa.RZero}, 1, -1},
		{isa.Inst{Op: isa.OpCmpTlt, Rd: 9, Ra: 1, Rb: 2}, [3]uint8{isa.FPBase + 1, isa.FPBase + 2, isa.RZero}, 2, 9},
		{isa.Inst{Op: isa.OpJsr, Rd: isa.RegRA}, [3]uint8{isa.RZero, isa.RZero, isa.RZero}, 0, isa.RegRA},
		{isa.Inst{Op: isa.OpBr}, [3]uint8{isa.RZero, isa.RZero, isa.RZero}, 0, -1},
	}
	for _, c := range cases {
		reads, n, write := c.in.Operands()
		if reads != c.reads || n != c.n || write != c.write {
			t.Errorf("%s: Operands = %v, %d, %d, want %v, %d, %d", c.in, reads, n, write, c.reads, c.n, c.write)
		}
	}
}
