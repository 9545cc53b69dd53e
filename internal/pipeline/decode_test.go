package pipeline

import (
	"math/rand"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// TestDecodeTableRedecodesOnNewInst pins the aliasing rule at the
// table: an entry is served only for the *isa.Inst it was decoded
// from, so one PC can carry a multiply and then a load.
func TestDecodeTableRedecodesOnNewInst(t *testing.T) {
	cfg := testConfig().normalized()
	tab := newDecodeTable(&cfg)
	mul := &isa.Inst{Op: isa.OpMul, Rd: 3, Ra: 1, Rb: 2}
	ld := &isa.Inst{Op: isa.OpLdq, Rd: 4, Ra: 3}
	for _, pc := range []int32{0, 7} {
		for round := 0; round < 2; round++ {
			d := tab.lookup(pc, mul)
			if d.class != 0 || d.lat != int32(cfg.IntMulLat) || d.srcs != [3]uint8{1, 2, isa.RZero} || d.dst != 3 {
				t.Fatalf("pc %d: mul decoded as %+v", pc, *d)
			}
			d = tab.lookup(pc, ld)
			if d.class != classLoad || d.srcs != [3]uint8{3, isa.RZero, isa.RZero} || d.dst != 4 {
				t.Fatalf("pc %d: load decoded as %+v", pc, *d)
			}
		}
	}
	br := &isa.Inst{Op: isa.OpBne, Ra: 4}
	if d := tab.lookup(3, br); d.class != classCondBranch|classBranch || d.lat != int32(cfg.BranchLat) {
		t.Fatalf("bne decoded as %+v", *d)
	}
	if d := tab.lookup(4, &isa.Inst{Op: isa.OpBr}); d.class != classBranch || d.srcs != [3]uint8{isa.RZero, isa.RZero, isa.RZero} || d.dst != -1 {
		t.Fatalf("br decoded as %+v", *d)
	}
}

// TestDecodeAliasingMatchesDistinctPCs feeds one model a mixed stream
// whose instructions all share PC 0 and another the same stream with
// each non-branch instruction at a PC of its own. Conditional branches
// stay at PC 0 in both, so the predictor sees the same PCs; the Stats
// must be equal, proving the decode table re-decodes on a changed
// *isa.Inst instead of timing a stale entry.
func TestDecodeAliasingMatchesDistinctPCs(t *testing.T) {
	insts := []*isa.Inst{
		{Op: isa.OpAdd, Rd: 1, Ra: 1, HasImm: true, Imm: 1},
		{Op: isa.OpMul, Rd: 2, Ra: 1, Rb: 2},
		{Op: isa.OpDiv, Rd: 5, Ra: 2, Rb: 1},
		{Op: isa.OpLdq, Rd: 3, Ra: 1},
		{Op: isa.OpStq, Ra: 1, Rb: 2},
		{Op: isa.OpLdt, Rd: 1, Ra: 1},
		{Op: isa.OpMult, Rd: 2, Ra: 1, Rb: 2},
		{Op: isa.OpCmovGt, Rd: 4, Ra: 3, Rb: 2},
		{Op: isa.OpBr},
		{Op: isa.OpBne, Ra: 3},
	}
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	shared := make([]sim.Event, n)
	distinct := make([]sim.Event, n)
	for i := range shared {
		in := insts[rng.Intn(len(insts))]
		ev := sim.Event{Seq: uint64(i), Inst: in}
		switch {
		case isa.IsLoad(in.Op) || isa.IsStore(in.Op):
			ev.Addr = 0x1000 + uint64(rng.Intn(32))*8 // reused words forward
		case isa.IsBranch(in.Op):
			ev.Taken = in.Op == isa.OpBr || rng.Intn(2) == 0
		}
		shared[i] = ev
		if !isa.IsCondBranch(in.Op) {
			ev.PC = int32(i + 1)
		}
		distinct[i] = ev
	}
	for _, inOrder := range []bool{false, true} {
		cfg := testConfig()
		cfg.InOrder = inOrder
		a, b := NewModel(cfg), NewModel(cfg)
		a.ObserveBatch(shared)
		b.ObserveBatch(distinct)
		sa, sb := a.Stats(), b.Stats()
		if sa != sb {
			t.Errorf("inOrder=%v: shared-PC stats %+v, distinct-PC stats %+v", inOrder, sa, sb)
		}
		if sa.Loads == 0 || sa.Stores == 0 || sa.Mispredicts == 0 {
			t.Errorf("inOrder=%v: stream exercised too little: %+v", inOrder, sa)
		}
	}
}
