package pipeline

import (
	"testing"

	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// testConfig is a simple 4-wide OoO machine with the paper's cache.
func testConfig() Config {
	return Config{
		Name: "test", FetchWidth: 4, IssueWidth: 4, RetireWidth: 4,
		WindowSize: 64, LoadPorts: 2, FrontEndDepth: 5, MispredictPenalty: 5,
		IntALULat: 1, IntMulLat: 7, IntDivLat: 20,
		FPALULat: 4, FPMulLat: 4, FPDivLat: 15, BranchLat: 1,
		Cache: cache.PaperConfig(),
	}
}

// run executes prog on the functional simulator with a model attached.
func run(t testing.TB, cfg Config, prog *isa.Program) Stats {
	t.Helper()
	m, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(cfg)
	m.AddBatchObserver(model)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return model.Stats()
}

// independentAdds builds a loop executing n fully independent adds
// per iteration across distinct registers.
func independentAdds(iters int64) *isa.Program {
	b := isa.NewBuilder("indep")
	b.Ldiq(1, iters)
	b.Label("loop")
	// 8 independent adds on registers 2..9.
	for r := uint8(2); r <= 9; r++ {
		b.OpI(isa.OpAdd, r, r, 1)
	}
	b.OpI(isa.OpSub, 1, 1, 1)
	b.Branch(isa.OpBgt, 1, "loop")
	b.Halt()
	return b.MustProgram()
}

// chainedAdds builds a loop whose body is one long dependence chain.
func chainedAdds(iters int64) *isa.Program {
	b := isa.NewBuilder("chain")
	b.Ldiq(1, iters)
	b.Label("loop")
	for i := 0; i < 8; i++ {
		b.OpI(isa.OpAdd, 2, 2, 1) // serial chain on r2
	}
	b.OpI(isa.OpSub, 1, 1, 1)
	b.Branch(isa.OpBgt, 1, "loop")
	b.Halt()
	return b.MustProgram()
}

func TestIndependentWorkApproachesIssueWidth(t *testing.T) {
	s := run(t, testConfig(), independentAdds(2000))
	ipc := s.IPC()
	if ipc < 2.5 {
		t.Errorf("independent adds IPC = %.2f, want >= 2.5 on a 4-wide machine", ipc)
	}
	if ipc > 4.01 {
		t.Errorf("IPC %.2f exceeds issue width", ipc)
	}
}

func TestDependenceChainSerializes(t *testing.T) {
	indep := run(t, testConfig(), independentAdds(2000))
	chain := run(t, testConfig(), chainedAdds(2000))
	if chain.Cycles < indep.Cycles*2 {
		t.Errorf("chained adds (%d cyc) should be much slower than independent (%d cyc)",
			chain.Cycles, indep.Cycles)
	}
	// The chain bounds IPC near 8 adds + overhead per 8 cycles.
	if ipc := chain.IPC(); ipc > 1.6 {
		t.Errorf("chained IPC = %.2f, want ~1.25", ipc)
	}
}

// pointerChase builds a serial load chain: r2 = mem[r2] repeatedly,
// where the cell points to itself so every load hits the same line.
func pointerChase(iters int64) *isa.Program {
	b := isa.NewBuilder("chase")
	addr := b.Global("cell", 8, 8, false)
	b.Ldiq(2, int64(addr))
	b.Store(isa.OpStq, 2, 2, 0) // cell = &cell
	b.Ldiq(1, iters)
	b.Label("loop")
	b.Load(isa.OpLdq, 2, 2, 0)
	b.Load(isa.OpLdq, 2, 2, 0)
	b.Load(isa.OpLdq, 2, 2, 0)
	b.Load(isa.OpLdq, 2, 2, 0)
	b.OpI(isa.OpSub, 1, 1, 1)
	b.Branch(isa.OpBgt, 1, "loop")
	b.Halt()
	return b.MustProgram()
}

func TestLoadToUseLatencyExposedBySerialLoads(t *testing.T) {
	const iters = 1000
	s := run(t, testConfig(), pointerChase(iters))
	// 4 serial L1-hit loads per iteration at 3 cycles each = 12
	// cycles per iteration minimum.
	minCycles := uint64(iters * 4 * 3)
	if s.Cycles < minCycles {
		t.Errorf("cycles = %d, want >= %d (serial 3-cycle loads)", s.Cycles, minCycles)
	}
	if s.Cycles > minCycles*13/10 {
		t.Errorf("cycles = %d, want close to %d", s.Cycles, minCycles)
	}
	if s.AMAT() < 2.9 || s.AMAT() > 3.2 {
		t.Errorf("AMAT = %.2f, want ~3 for L1 hits", s.AMAT())
	}
}

// dataBranchProgram builds the paper's Section 2.2 pattern: a loop
// over a data array where a load feeds a comparison feeding a
// conditional branch; with random data the branch is hard to predict.
// When cmov is true the branch is replaced by a conditional move (the
// paper's transformed code shape).
func dataBranchProgram(n int64, cmov bool, data []int64) (*isa.Program, error) {
	b := isa.NewBuilder("databranch")
	addr := b.Global("data", uint64(n)*8, 8, false)
	b.Ldiq(1, n)           // counter
	b.Ldiq(2, int64(addr)) // pointer
	b.Ldiq(3, 0)           // accumulator
	b.Label("loop")
	b.Load(isa.OpLdq, 4, 2, 0) // load -> feeds branch (load-to-branch)
	if cmov {
		b.Op3(isa.OpCmovGt, 3, 4, 4) // if r4 > 0: acc = r4
	} else {
		b.Branch(isa.OpBle, 4, "skip")
		b.Op3(isa.OpAdd, 3, 4, isa.RZero) // acc = r4
		b.Label("skip")
	}
	b.OpI(isa.OpAdd, 2, 2, 8)
	b.OpI(isa.OpSub, 1, 1, 1)
	b.Branch(isa.OpBgt, 1, "loop")
	b.Halt()
	p, err := b.Program()
	if err != nil {
		return nil, err
	}
	initWords(p, "data", data)
	return p, nil
}

// initWords makes the global name start out holding vals as 64-bit
// little-endian words.
func initWords(p *isa.Program, name string, vals []int64) {
	sym, _ := p.Symbol(name)
	buf := make([]byte, sym.Size)
	for i, v := range vals {
		for k := 0; k < 8; k++ {
			buf[i*8+k] = byte(uint64(v) >> (8 * k))
		}
	}
	p.Init = append(p.Init, isa.DataInit{Addr: sym.Addr, Bytes: buf})
}

func lcg(seed uint64, n int64) []int64 {
	out := make([]int64, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = int64(x>>33)%100 - 50 // roughly half positive
	}
	return out
}

func TestHardBranchesCostCycles(t *testing.T) {
	const n = 5000
	random := lcg(1, n)
	branchy, err := dataBranchProgram(n, false, random)
	if err != nil {
		t.Fatal(err)
	}
	cmovy, err := dataBranchProgram(n, true, random)
	if err != nil {
		t.Fatal(err)
	}
	sb := run(t, testConfig(), branchy)
	sc := run(t, testConfig(), cmovy)

	if sb.MispredictRate() < 0.10 {
		t.Errorf("random-data branch mispredict rate = %.3f, want substantial", sb.MispredictRate())
	}
	if sc.Mispredicts > sb.Mispredicts/4 {
		t.Errorf("cmov version still mispredicts a lot: %d vs %d", sc.Mispredicts, sb.Mispredicts)
	}
	// This is the paper's headline effect: eliminating the
	// load-fed hard branch saves real cycles.
	if sc.Cycles >= sb.Cycles {
		t.Errorf("cmov version (%d cyc) not faster than branchy (%d cyc)", sc.Cycles, sb.Cycles)
	}
	speedup := float64(sb.Cycles)/float64(sc.Cycles) - 1
	if speedup < 0.15 {
		t.Errorf("speedup = %.1f%%, want >= 15%%", speedup*100)
	}
}

func TestPredictableBranchesAreCheap(t *testing.T) {
	const n = 5000
	allPos := make([]int64, n)
	for i := range allPos {
		allPos[i] = 1
	}
	branchy, err := dataBranchProgram(n, false, allPos)
	if err != nil {
		t.Fatal(err)
	}
	s := run(t, testConfig(), branchy)
	if s.MispredictRate() > 0.01 {
		t.Errorf("always-taken data branch mispredicts at %.3f", s.MispredictRate())
	}
}

func TestLoadToBranchExtendsMispredictCost(t *testing.T) {
	// Two variants with identical branch behaviour (random) and
	// identical instruction counts, but in one the branch condition
	// comes from a load (3-cycle latency), in the other from an ALU
	// chain computed far ahead. The load-fed variant must pay more
	// per misprediction (the Section 2.2 mechanism).
	const n = 4000
	random := lcg(9, n)

	build := func(loadFed bool) *isa.Program {
		b := isa.NewBuilder("mp")
		addr := b.Global("data", n*8, 8, false)
		b.Ldiq(1, n)
		b.Ldiq(2, int64(addr))
		b.Label("loop")
		b.Load(isa.OpLdq, 4, 2, 0)
		if loadFed {
			// Branch tests the just-loaded value: resolution
			// waits for the load.
			b.Branch(isa.OpBle, 4, "skip")
		} else {
			// Branch tests a value loaded in the *previous*
			// iteration (r5), already long ready.
			b.Branch(isa.OpBle, 5, "skip")
		}
		b.OpI(isa.OpAdd, 3, 3, 1)
		b.Label("skip")
		b.Op3(isa.OpAdd, 5, 4, isa.RZero) // carry value to next iter
		b.OpI(isa.OpAdd, 2, 2, 8)
		b.OpI(isa.OpSub, 1, 1, 1)
		b.Branch(isa.OpBgt, 1, "loop")
		b.Halt()
		p := b.MustProgram()
		initWords(p, "data", random)
		return p
	}

	sLoad := run(t, testConfig(), build(true))
	sAhead := run(t, testConfig(), build(false))

	// Both versions see essentially the same mispredict counts
	// (same random condition stream, one iteration shifted).
	if sLoad.Mispredicts == 0 || sAhead.Mispredicts == 0 {
		t.Fatal("expected mispredictions in both variants")
	}
	perLoad := float64(sLoad.Cycles) / float64(sLoad.Mispredicts)
	perAhead := float64(sAhead.Cycles) / float64(sAhead.Mispredicts)
	if perLoad <= perAhead {
		t.Errorf("load-fed branch cost %.2f cyc/mispredict, early-resolved %.2f: load latency not added to penalty",
			perLoad, perAhead)
	}
}

func TestInOrderExposesLoadUseStalls(t *testing.T) {
	// In-order: load followed immediately by its use stalls the whole
	// machine; OoO hides it with the independent adds that follow.
	build := func() *isa.Program {
		b := isa.NewBuilder("inorder")
		addr := b.Global("buf", 4096, 8, false)
		b.Ldiq(1, 2000)
		b.Ldiq(2, int64(addr))
		b.Label("loop")
		b.Load(isa.OpLdq, 4, 2, 0)
		b.OpI(isa.OpAdd, 5, 4, 1) // immediate use
		// Independent filler an OoO core can overlap with the load.
		b.OpI(isa.OpAdd, 6, 6, 1)
		b.OpI(isa.OpAdd, 7, 7, 1)
		b.OpI(isa.OpAdd, 8, 8, 1)
		b.OpI(isa.OpSub, 1, 1, 1)
		b.Branch(isa.OpBgt, 1, "loop")
		b.Halt()
		return b.MustProgram()
	}
	ooo := testConfig()
	ino := testConfig()
	ino.InOrder = true
	sOoo := run(t, ooo, build())
	sIno := run(t, ino, build())
	if sIno.Cycles <= sOoo.Cycles {
		t.Errorf("in-order (%d) should be slower than OoO (%d)", sIno.Cycles, sOoo.Cycles)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A load that reads the address just stored must not complete
	// before the store's data was ready.
	b := isa.NewBuilder("fwd")
	addr := b.Global("x", 8, 8, false)
	b.Ldiq(1, int64(addr))
	b.Ldiq(2, 5)
	// Long dependence chain delays the store data.
	for i := 0; i < 20; i++ {
		b.OpI(isa.OpAdd, 2, 2, 1)
	}
	b.Store(isa.OpStq, 2, 1, 0)
	b.Load(isa.OpLdq, 3, 1, 0)
	b.OpI(isa.OpAdd, 4, 3, 1)
	b.Halt()
	s := run(t, testConfig(), b.MustProgram())
	// The chain alone is 20+ cycles; the load cannot finish earlier.
	if s.Cycles < 22 {
		t.Errorf("cycles = %d: load overtook the forwarding store", s.Cycles)
	}
}

func TestWindowLimitsRunahead(t *testing.T) {
	// With a tiny window, a long-latency instruction blocks retire
	// and stalls dispatch; a big window rides over it.
	build := func() *isa.Program {
		b := isa.NewBuilder("win")
		b.Ldiq(1, 500)
		b.Label("loop")
		b.Op3(isa.OpMul, 9, 9, 9) // 7-cycle op, independent chain head
		for r := uint8(2); r <= 8; r++ {
			b.OpI(isa.OpAdd, r, r, 1)
		}
		b.OpI(isa.OpSub, 1, 1, 1)
		b.Branch(isa.OpBgt, 1, "loop")
		b.Halt()
		return b.MustProgram()
	}
	small := testConfig()
	small.WindowSize = 4
	big := testConfig()
	big.WindowSize = 256
	sSmall := run(t, small, build())
	sBig := run(t, big, build())
	if sSmall.Cycles <= sBig.Cycles {
		t.Errorf("window 4 (%d cyc) should be slower than window 256 (%d cyc)",
			sSmall.Cycles, sBig.Cycles)
	}
}

func TestStatsAccounting(t *testing.T) {
	const n = 100
	p, err := dataBranchProgram(n, false, lcg(2, n))
	if err != nil {
		t.Fatal(err)
	}
	s := run(t, testConfig(), p)
	if s.Loads != n {
		t.Errorf("loads = %d, want %d", s.Loads, n)
	}
	if s.L1Hits+s.L2Hits+s.MemHits != s.Loads {
		t.Error("load level counts do not sum")
	}
	if s.CondBranches == 0 || s.Instructions == 0 || s.Cycles == 0 {
		t.Error("zero counters")
	}
	if s.IPC() <= 0 {
		t.Error("IPC should be positive")
	}
}

func TestCustomPredictorInjection(t *testing.T) {
	cfg := testConfig()
	cfg.Predictor = func() bpred.Predictor { return &bpred.Static{Taken: false} }
	const n = 500
	allPos := make([]int64, n)
	for i := range allPos {
		allPos[i] = 1
	}
	p, err := dataBranchProgram(n, false, allPos)
	if err != nil {
		t.Fatal(err)
	}
	s := run(t, cfg, p)
	// Every loop back-edge (taken) is mispredicted by always-not-taken.
	if s.MispredictRate() < 0.4 {
		t.Errorf("static not-taken should mispredict loop branches: rate %.2f", s.MispredictRate())
	}
}

// TestDensePredictorMatchesHybrid times a hard-to-predict branchy
// program twice: on the default path (Predictor nil, the paper hybrid
// on a bpred.DenseShard) and through the generic Predictor path with
// the map-backed bpred.Hybrid. The two must agree on every statistic,
// cycles included.
func TestDensePredictorMatchesHybrid(t *testing.T) {
	const n = 5000
	p, err := dataBranchProgram(n, false, lcg(7, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, inOrder := range []bool{false, true} {
		dense := testConfig()
		dense.InOrder = inOrder
		generic := dense
		generic.Predictor = func() bpred.Predictor { return bpred.NewPaperHybrid() }
		sd, sg := run(t, dense, p), run(t, generic, p)
		if sd != sg {
			t.Errorf("inOrder=%v: dense %+v, hybrid %+v", inOrder, sd, sg)
		}
		if sd.Mispredicts == 0 {
			t.Errorf("inOrder=%v: random branches never mispredicted", inOrder)
		}
	}
}

func TestZeroValueStatsHelpers(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.MispredictRate() != 0 || s.AMAT() != 0 {
		t.Error("zero stats helpers should be 0")
	}
	// Each helper guards its own denominator independently: a numerator
	// without its denominator must not divide by zero, and the other
	// helpers must be unaffected.
	s = Stats{Instructions: 100, Mispredicts: 5, LoadLatencySum: 300}
	if s.IPC() != 0 || s.MispredictRate() != 0 || s.AMAT() != 0 {
		t.Errorf("numerators without denominators: IPC %v, rate %v, AMAT %v, want 0",
			s.IPC(), s.MispredictRate(), s.AMAT())
	}
	s = Stats{Instructions: 100, Cycles: 50, CondBranches: 20, Mispredicts: 5,
		Loads: 10, LoadLatencySum: 30}
	if got := s.IPC(); got != 2 {
		t.Errorf("IPC = %v, want 2", got)
	}
	if got := s.MispredictRate(); got != 0.25 {
		t.Errorf("MispredictRate = %v, want 0.25", got)
	}
	if got := s.AMAT(); got != 3 {
		t.Errorf("AMAT = %v, want 3", got)
	}
}

func BenchmarkModelThroughput(b *testing.B) {
	p := independentAdds(int64(b.N/10 + 1))
	m, err := sim.New(p)
	if err != nil {
		b.Fatal(err)
	}
	model := NewModel(testConfig())
	m.AddBatchObserver(model)
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// mixedProgram builds a loop over random data that exercises every
// per-event cost of the model: a load feeding a data-dependent branch,
// a store into a reused 64-word buffer that a later load reads back
// (store-to-load forwarding), a multiply, and the loop branch.
func mixedProgram(n int64) *isa.Program {
	b := isa.NewBuilder("mixed")
	data := b.Global("data", uint64(n)*8, 8, false)
	buf := b.Global("buf", 64*8, 8, false)
	b.Ldiq(1, n)
	b.Ldiq(2, int64(data))
	b.Ldiq(6, int64(buf))
	b.Ldiq(7, 0)
	b.Label("loop")
	b.Load(isa.OpLdq, 4, 2, 0)
	b.Branch(isa.OpBle, 4, "skip")
	b.Op3(isa.OpMul, 3, 3, 4)
	b.Label("skip")
	b.OpI(isa.OpAnd, 8, 7, 63*8)
	b.Op3(isa.OpAdd, 8, 8, 6)
	b.Store(isa.OpStq, 4, 8, 0)
	b.Load(isa.OpLdq, 5, 8, 0)
	b.Op3(isa.OpAdd, 3, 3, 5)
	b.OpI(isa.OpAdd, 7, 7, 8)
	b.OpI(isa.OpAdd, 2, 2, 8)
	b.OpI(isa.OpSub, 1, 1, 1)
	b.Branch(isa.OpBgt, 1, "loop")
	b.Halt()
	p := b.MustProgram()
	initWords(p, "data", lcg(3, n))
	return p
}

// BenchmarkModelMixed times the model alone over a recorded mixed
// stream (loads, forwarding stores, data-dependent branches), so the
// functional simulator's cost is not in the measurement. It reports
// ns/event, the figure bench/'s pipeline.observe_ns_per_event tracks.
func BenchmarkModelMixed(b *testing.B) {
	m, err := sim.New(mixedProgram(20000))
	if err != nil {
		b.Fatal(err)
	}
	var evs []sim.Event
	m.AddBatchObserver(sim.BatchObserverFunc(func(batch []sim.Event) {
		evs = append(evs, batch...)
	}))
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	model := NewModel(testConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.ObserveBatch(evs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

func TestLoadPortsLimitThroughput(t *testing.T) {
	// Eight independent loads per iteration: with 1 load port the
	// loop needs >= 8 cycles/iteration; with 4 ports it can do better.
	build := func() *isa.Program {
		b := isa.NewBuilder("ports")
		addr := b.Global("buf", 4096, 8, false)
		b.Ldiq(2, int64(addr))
		b.Ldiq(1, 1000)
		b.Label("loop")
		for r := uint8(4); r < 12; r++ {
			b.Load(isa.OpLdq, r, 2, int64(r)*8)
		}
		b.OpI(isa.OpSub, 1, 1, 1)
		b.Branch(isa.OpBgt, 1, "loop")
		b.Halt()
		return b.MustProgram()
	}
	one := testConfig()
	one.LoadPorts = 1
	four := testConfig()
	four.LoadPorts = 4
	four.IssueWidth = 8
	four.FetchWidth = 8
	s1 := run(t, one, build())
	s4 := run(t, four, build())
	if s1.Cycles <= s4.Cycles {
		t.Errorf("1 load port (%d cyc) should be slower than 4 (%d cyc)", s1.Cycles, s4.Cycles)
	}
	if s1.Cycles < 8000 {
		t.Errorf("1 port: %d cycles for 8000 loads, impossible", s1.Cycles)
	}
}

func TestRetireWidthBoundsIPC(t *testing.T) {
	cfg := testConfig()
	cfg.RetireWidth = 1
	s := run(t, cfg, independentAdds(2000))
	if s.IPC() > 1.01 {
		t.Errorf("retire width 1 allows IPC %.2f", s.IPC())
	}
}

func TestTakenBranchFetchBreak(t *testing.T) {
	// A loop of N straight-line instructions vs the same work split
	// by taken branches every 2 instructions: the branchy version
	// must lose fetch bandwidth even though every branch predicts
	// perfectly.
	straight := func() *isa.Program {
		b := isa.NewBuilder("st")
		b.Ldiq(1, 2000)
		b.Label("loop")
		for r := uint8(2); r <= 9; r++ {
			b.OpI(isa.OpAdd, r, r, 1)
		}
		b.OpI(isa.OpSub, 1, 1, 1)
		b.Branch(isa.OpBgt, 1, "loop")
		b.Halt()
		return b.MustProgram()
	}
	hoppy := func() *isa.Program {
		b := isa.NewBuilder("hop")
		b.Ldiq(1, 2000)
		b.Label("loop")
		for r := uint8(2); r <= 9; r += 2 {
			b.OpI(isa.OpAdd, r, r, 1)
			b.OpI(isa.OpAdd, r+1, r+1, 1)
			b.Branch(isa.OpBr, 0, labelOf(r)) // unconditional hop
			b.Label(labelOf(r))
		}
		b.OpI(isa.OpSub, 1, 1, 1)
		b.Branch(isa.OpBgt, 1, "loop")
		b.Halt()
		return b.MustProgram()
	}
	ss := run(t, testConfig(), straight())
	sh := run(t, testConfig(), hoppy())
	// Per useful work done (same adds), the hoppy version needs more
	// cycles.
	if sh.Cycles <= ss.Cycles {
		t.Errorf("taken branches should break fetch groups: straight %d, hoppy %d",
			ss.Cycles, sh.Cycles)
	}
}

func labelOf(r uint8) string { return "hop" + string(rune('a'+r)) }

func TestModelAccessors(t *testing.T) {
	m := NewModel(testConfig())
	if m.Config().Name != "test" {
		t.Error("Config accessor broken")
	}
	if s := m.Stats(); s != (Stats{}) {
		t.Errorf("fresh model has stats %+v", s)
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := NewModel(Config{Cache: cache.PaperConfig()})
	cfg := m.Config()
	if cfg.FetchWidth <= 0 || cfg.IssueWidth <= 0 || cfg.RetireWidth <= 0 ||
		cfg.WindowSize <= 0 || cfg.LoadPorts <= 0 || cfg.BranchLat <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

// TestNewModelRejectsCountersPastByte: the per-cycle issue and
// load-port counters are bytes, so a width or port count they cannot
// reach is refused up front instead of wrapping; 255 is accepted.
func TestNewModelRejectsCountersPastByte(t *testing.T) {
	for _, c := range []struct {
		issue, ports int
		panics       bool
	}{
		{255, 255, false},
		{256, 2, true},
		{4, 256, true},
	} {
		cfg := testConfig()
		cfg.IssueWidth, cfg.LoadPorts = c.issue, c.ports
		func() {
			defer func() {
				if got := recover() != nil; got != c.panics {
					t.Errorf("IssueWidth %d, LoadPorts %d: panicked %v, want %v", c.issue, c.ports, got, c.panics)
				}
			}()
			NewModel(cfg)
		}()
	}
}
