package scoreboard

import (
	"testing"

	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/sim"
)

// newTestModel builds a model on a 4-wide machine with the paper's
// cache latencies and a 20-cycle divide, then applies mut.
func newTestModel(mut func(*pipeline.Config)) *Model {
	cfg := pipeline.Config{
		FetchWidth:        4,
		IssueWidth:        4,
		RetireWidth:       4,
		WindowSize:        64,
		FrontEndDepth:     5,
		MispredictPenalty: 10,
		IntDivLat:         20,
		Cache:             cache.PaperConfig(),
	}
	if mut != nil {
		mut(&cfg)
	}
	return NewModel(cfg)
}

// Synthetic committed-instruction events. The model only looks at
// Inst, Addr, PC, and Taken, so the tests fabricate streams directly
// instead of running the functional simulator.

// addImm is `add rD = r31 + 1`: no sources (r31 is the zero register),
// unit latency.
func addImm(dst uint8) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpAdd, Rd: dst, Ra: isa.RZero, HasImm: true, Imm: 1}}
}

// addReg is `add rD = rS + 1`: one register source.
func addReg(dst, src uint8) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpAdd, Rd: dst, Ra: src, HasImm: true, Imm: 1}}
}

// divImm is `div rD = r31 / 2`: no sources, IntDivLat latency.
func divImm(dst uint8) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpDiv, Rd: dst, Ra: isa.RZero, HasImm: true, Imm: 2}}
}

func loadAt(dst uint8, addr uint64) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpLdq, Rd: dst, Ra: isa.RZero}, Addr: addr}
}

func condBranch(pc int32, taken bool) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpBne, Ra: isa.RZero}, PC: pc, Taken: taken}
}

func cycles(m *Model) uint64 { return m.Stats().Cycles }

// An independent stream retires at the machine width: N source-free
// adds on a 4-wide machine take about N/4 cycles.
func TestIndependentStreamThroughput(t *testing.T) {
	m := newTestModel(nil)
	const n = 4096
	evs := make([]sim.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, addImm(uint8(1+i%8)))
	}
	m.ObserveBatch(evs)
	got := cycles(m)
	if got < n/4 || got > n/4+8 {
		t.Errorf("independent stream: %d cycles, want about %d", got, n/4)
	}
}

// A single dependence chain serializes completely: N dependent
// unit-latency adds take about N cycles regardless of width.
func TestDependentChainSerializes(t *testing.T) {
	m := newTestModel(nil)
	const n = 4096
	evs := make([]sim.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, addReg(1, 1))
	}
	m.ObserveBatch(evs)
	got := cycles(m)
	if got < n || got > n+8 {
		t.Errorf("dependent chain: %d cycles, want about %d", got, n)
	}
}

// On an in-order core a late operand holds every later instruction
// back; out of order, independent work flows past the stalled one.
// The same stream must therefore cost several times more in order.
func TestInOrderStallsOnLateOperands(t *testing.T) {
	var evs []sim.Event
	for i := 0; i < 64; i++ {
		evs = append(evs, divImm(1))    // 20-cycle producer
		evs = append(evs, addReg(2, 1)) // consumer stalls on it
		for d := uint8(3); d < 7; d++ {
			evs = append(evs, addImm(d)) // independent filler
		}
	}
	ooo := newTestModel(nil)
	ooo.ObserveBatch(evs)
	ino := newTestModel(func(cfg *pipeline.Config) { cfg.InOrder = true })
	ino.ObserveBatch(evs)
	if c1, c2 := cycles(ino), cycles(ooo); c1 < 3*c2 {
		t.Errorf("in-order %d cycles, out-of-order %d: want in-order >= 3x", c1, c2)
	}
}

// A full window stops dispatch: long-latency instructions that overlap
// freely in a large window serialize in a small one.
func TestWindowFullStallsDispatch(t *testing.T) {
	const n = 400
	evs := make([]sim.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, divImm(uint8(1+i%8)))
	}
	big := newTestModel(nil) // window 64
	big.ObserveBatch(evs)
	small := newTestModel(func(cfg *pipeline.Config) { cfg.WindowSize = 4 })
	small.ObserveBatch(evs)
	if c1, c2 := cycles(small), cycles(big); c1 < 3*c2 {
		t.Errorf("window 4: %d cycles, window 64: %d: want >= 3x", c1, c2)
	}
}

// Mispredicted branches stall the front end: after each miss, fetch
// waits for the branch to resolve and then pays the redirect cost.
func TestMispredictRedirectStalls(t *testing.T) {
	m := newTestModel(nil)
	rng := uint64(12345)
	const n = 2000
	evs := make([]sim.Event, 0, n)
	for i := 0; i < n; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		evs = append(evs, condBranch(int32(i%17), rng&1 == 0))
	}
	m.ObserveBatch(evs)
	s := m.Stats()
	if s.CondBranches != n {
		t.Fatalf("CondBranches = %d, want %d", s.CondBranches, n)
	}
	// A random stream defeats the predictor on a large fraction of
	// branches; each miss costs MispredictPenalty+FrontEndDepth (15)
	// plus the branch's own resolution.
	if s.Mispredicts < n/5 || s.Mispredicts > 4*n/5 {
		t.Fatalf("Mispredicts = %d on a random stream of %d", s.Mispredicts, n)
	}
	if min := s.Mispredicts * 15; s.Cycles < min {
		t.Errorf("Cycles = %d with %d misses, want >= %d", s.Cycles, s.Mispredicts, min)
	}
}

// Finalize with a larger total extrapolates cycles and event counters
// by total/observed and reports the exact instruction count.
func TestFinalizeExtrapolates(t *testing.T) {
	m := newTestModel(nil)
	var evs []sim.Event
	for i := 0; i < 800; i++ {
		evs = append(evs, addImm(uint8(1+i%8)))
	}
	for i := 0; i < 200; i++ {
		evs = append(evs, loadAt(9, uint64(0x10000+64*i)))
	}
	m.ObserveBatch(evs)
	raw := m.Stats()
	if raw.Instructions != 1000 || raw.Loads != 200 {
		t.Fatalf("raw stats: %d insts, %d loads", raw.Instructions, raw.Loads)
	}

	m.Finalize(10_000)
	s := m.Stats()
	if s.Instructions != 10_000 {
		t.Errorf("Instructions = %d, want 10000", s.Instructions)
	}
	if s.Cycles != raw.Cycles*10 {
		t.Errorf("Cycles = %d, want %d (10x raw)", s.Cycles, raw.Cycles*10)
	}
	if s.Loads != raw.Loads*10 {
		t.Errorf("Loads = %d, want %d", s.Loads, raw.Loads*10)
	}
	if s.L1Hits+s.L2Hits+s.MemHits != s.Loads {
		t.Errorf("cache level counts %d+%d+%d don't sum to %d loads",
			s.L1Hits, s.L2Hits, s.MemHits, s.Loads)
	}
}

// Finalize with the observed count (an unsampled run) changes nothing.
func TestFinalizeExactWhenUnsampled(t *testing.T) {
	m := newTestModel(nil)
	var evs []sim.Event
	for i := 0; i < 500; i++ {
		evs = append(evs, addImm(1))
	}
	m.ObserveBatch(evs)
	raw := m.Stats()
	m.Finalize(500)
	if s := m.Stats(); s != raw {
		t.Errorf("Finalize(observed) changed stats: %+v vs %+v", s, raw)
	}
}

// mixedEvents is a synthetic loop of iters iterations: a load from a
// streamed array feeding a random conditional branch, a store into a
// reused 64-word buffer that the next load reads back, a multiply, and
// a dependent add. Each static instruction keeps its own PC and
// *isa.Inst, as in a real program.
func mixedEvents(iters uint64) []sim.Event {
	body := []*isa.Inst{
		{Op: isa.OpLdq, Rd: 4, Ra: 2},
		{Op: isa.OpBle, Ra: 4},
		{Op: isa.OpStq, Ra: 6, Rb: 4},
		{Op: isa.OpLdq, Rd: 5, Ra: 6},
		{Op: isa.OpMul, Rd: 3, Ra: 3, Rb: 5},
		{Op: isa.OpAdd, Rd: 2, Ra: 2, HasImm: true, Imm: 8},
	}
	evs := make([]sim.Event, 0, iters*uint64(len(body)))
	rng := uint64(12345)
	for i := uint64(0); i < iters; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		for pc, in := range body {
			ev := sim.Event{PC: int32(pc), Inst: in}
			switch pc {
			case 0:
				ev.Addr = 0x100000 + 8*i
			case 1:
				ev.Taken = rng&1 == 0
			case 2, 3:
				ev.Addr = 0x200000 + 8*(i%64)
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

// TestUnsampledMatchesPipeline pins "one timing model": on every
// platform, an unsampled Model returns exactly the Stats of the full
// pipeline.Model over the same mixed load/store/branch stream, before
// and after Finalize with the observed count.
func TestUnsampledMatchesPipeline(t *testing.T) {
	evs := mixedEvents(1 << 12)
	for _, pl := range platform.All() {
		cfg := pl.WithFidelity(pipeline.FidelityFast).Pipeline
		fast := NewModel(cfg)
		full := pipeline.NewModel(cfg)
		for i := 0; i < len(evs); i += 1000 {
			batch := evs[i:min(i+1000, len(evs))]
			fast.ObserveBatch(batch)
			full.ObserveBatch(batch)
		}
		want := full.Stats()
		if want.Loads == 0 || want.Stores == 0 || want.Mispredicts == 0 {
			t.Fatalf("%s: stream exercised too little: %+v", pl.Name, want)
		}
		if got := fast.Stats(); got != want {
			t.Errorf("%s: fast tier %+v, full model %+v", pl.Name, got, want)
		}
		fast.Finalize(uint64(len(evs)))
		if got := fast.Stats(); got != want {
			t.Errorf("%s: after Finalize(observed) fast tier %+v, full model %+v", pl.Name, got, want)
		}
	}
}

// BenchmarkModelMixed times the model over mixedEvents and reports
// ns/event.
func BenchmarkModelMixed(b *testing.B) {
	evs := mixedEvents(1 << 14)
	m := newTestModel(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObserveBatch(evs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}
