package loadchar

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// analyze runs one bio program at test size under the analysis.
func analyze(t testing.TB, name string) *Analysis {
	t.Helper()
	p, err := bio.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(m, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	a := New(prog)
	m.AddBatchObserver(a)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMixConsistency(t *testing.T) {
	a := analyze(t, "hmmsearch")
	m := a.Mix()
	if m.Total == 0 {
		t.Fatal("no instructions observed")
	}
	if m.Loads+m.Stores+m.CondBranches+m.Other != m.Total {
		t.Error("class counts do not sum to total")
	}
	sum := m.LoadPct + m.StorePct + m.BranchPct + m.OtherPct
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("percentages sum to %f", sum)
	}
	// The paper: loads are ~30% of instructions in these codes.
	if m.LoadPct < 15 || m.LoadPct > 50 {
		t.Errorf("hmmsearch load%% = %.1f, expected a load-heavy mix", m.LoadPct)
	}
}

func TestFPFractionShape(t *testing.T) {
	// Table 1's shape: promlk >> predator > hmmpfam > hmmsearch.
	fp := func(name string) float64 { return analyze(t, name).Mix().FPFraction }
	promlk := fp("promlk")
	predator := fp("predator")
	hmmpfam := fp("hmmpfam")
	hmmsearch := fp("hmmsearch")
	if !(promlk > predator && predator > hmmpfam && hmmpfam > hmmsearch) {
		t.Errorf("FP fractions out of order: promlk=%.3f predator=%.3f hmmpfam=%.3f hmmsearch=%.3f",
			promlk, predator, hmmpfam, hmmsearch)
	}
	if promlk < 0.4 {
		t.Errorf("promlk FP fraction = %.3f, want dominant (paper: 65%%)", promlk)
	}
}

func TestCoverageCurve(t *testing.T) {
	a := analyze(t, "hmmsearch")
	cov := a.Coverage()
	if len(cov) == 0 {
		t.Fatal("no static loads")
	}
	for i := 1; i < len(cov); i++ {
		if cov[i] < cov[i-1] {
			t.Fatal("coverage curve not monotone")
		}
	}
	if last := cov[len(cov)-1]; last < 0.999 || last > 1.001 {
		t.Errorf("coverage curve ends at %f", last)
	}
	// The paper's headline: ~80 static loads cover >90% of dynamic
	// loads in the BioPerf codes.
	if c := a.CoverageAt(80); c < 0.9 {
		t.Errorf("top-80 coverage = %.3f, want > 0.9", c)
	}
	if a.CoverageAt(0) != 0 {
		t.Error("CoverageAt(0) should be 0")
	}
	if a.CoverageAt(1<<20) <= 0.999 {
		t.Error("CoverageAt beyond curve should be ~1")
	}
}

func TestCacheReportMostlyL1Hits(t *testing.T) {
	// Table 2: these programs almost always hit in L1.
	for _, name := range []string{"hmmsearch", "clustalw", "promlk"} {
		a := analyze(t, name)
		r := a.CacheReport()
		if r.L1Local > 0.05 {
			t.Errorf("%s L1 miss rate = %.4f, want tiny", name, r.L1Local)
		}
		if r.AMAT < 3.0 || r.AMAT > 4.0 {
			t.Errorf("%s AMAT = %.2f, want dominated by the 3-cycle hit latency", name, r.AMAT)
		}
	}
}

func TestSequencesShape(t *testing.T) {
	// Table 4a: the hmm programs have the highest load-to-branch
	// fractions; promlk the lowest.
	lb := func(name string) float64 { return analyze(t, name).Sequences().LoadToBranchPct }
	hmm := lb("hmmsearch")
	prom := lb("promlk")
	if hmm <= prom {
		t.Errorf("load-to-branch: hmmsearch %.1f%% should exceed promlk %.1f%%", hmm, prom)
	}
	if hmm < 20 {
		t.Errorf("hmmsearch load-to-branch = %.1f%%, expected large (paper: 93.5%%)", hmm)
	}
	s := analyze(t, "hmmsearch").Sequences()
	if s.FedBranchMispredictRate <= 0 || s.FedBranchMispredictRate > 1 {
		t.Errorf("fed-branch mispredict rate = %f", s.FedBranchMispredictRate)
	}
	if s.LoadAfterHardBranchPct < 0 || s.LoadAfterHardBranchPct > 100 {
		t.Errorf("after-hard-branch pct = %f", s.LoadAfterHardBranchPct)
	}
}

func TestHotLoadsAttribution(t *testing.T) {
	a := analyze(t, "hmmsearch")
	hot := a.HotLoads(10)
	if len(hot) != 10 {
		t.Fatalf("got %d hot loads", len(hot))
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Frequency > hot[i-1].Frequency {
			t.Error("hot loads not sorted by frequency")
		}
	}
	// Table 5's pattern: the hot loads live in the Viterbi kernel and
	// carry source lines.
	foundVrow := false
	for _, h := range hot {
		if h.Func == "vrow" {
			foundVrow = true
			if h.Line <= 0 {
				t.Errorf("vrow hot load without source line: %+v", h)
			}
			if h.L1MissRate > 0.05 {
				t.Errorf("vrow load misses too much: %+v", h)
			}
		}
	}
	if !foundVrow {
		t.Errorf("no hot load attributed to vrow: %+v", hot)
	}
}

// TestRankingMatchesFullSort pins HotLoads' and CoverageAt's bounded
// selection to a full sort of every executed static load, on a real
// profile and on one whose counts are rewritten to tie in runs of
// three (so the PC tie-break decides), for n from 0 past the number of
// executed loads.
func TestRankingMatchesFullSort(t *testing.T) {
	live := analyze(t, "hmmsearch")
	tied := live.Snapshot()
	for pc, c := range tied.LoadCounts {
		if c != 0 {
			tied.LoadCounts[pc] = c/3*3 + 1
		}
	}
	restored, err := FromSnapshot(live.prog, tied)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Analysis{"live": live, "tied": restored} {
		var want []int32
		for pc, c := range a.rep.LoadCounts {
			if c != 0 {
				want = append(want, int32(pc))
			}
		}
		counts := a.rep.LoadCounts
		sort.Slice(want, func(i, j int) bool {
			if ci, cj := counts[want[i]], counts[want[j]]; ci != cj {
				return ci > cj
			}
			return want[i] < want[j]
		})
		cov := a.Coverage()
		for _, n := range []int{0, 1, 2, 6, 10, 80, len(want) - 1, len(want), len(want) + 5} {
			hot := a.HotLoads(n)
			if len(hot) != min(n, len(want)) {
				t.Fatalf("%s: HotLoads(%d) has %d rows, want %d", name, n, len(hot), min(n, len(want)))
			}
			for i, h := range hot {
				if h.PC != want[i] {
					t.Fatalf("%s: HotLoads(%d)[%d].PC = %d, want %d", name, n, i, h.PC, want[i])
				}
			}
			wantCov := 0.0
			if n > 0 {
				wantCov = cov[min(n, len(cov))-1]
			}
			if got := a.CoverageAt(n); got != wantCov {
				t.Errorf("%s: CoverageAt(%d) = %v, want %v", name, n, got, wantCov)
			}
		}
	}
}

func TestCandidatesFindViterbiLoads(t *testing.T) {
	a := analyze(t, "hmmsearch")
	cands := a.Candidates(0.005, 0.05, 0.05)
	if len(cands) == 0 {
		t.Fatal("no optimization candidates found in hmmsearch")
	}
	inVrow := 0
	for _, c := range cands {
		if c.Func == "vrow" {
			inVrow++
		}
	}
	if inVrow == 0 {
		t.Errorf("candidates missed the Viterbi kernel: %+v", cands)
	}
}

func TestAnalysisOnHandBuiltProgram(t *testing.T) {
	// A tiny deterministic program: a load feeding a branch must be
	// detected as a load-to-branch sequence.
	b := isa.NewBuilder("micro")
	addr := b.Global("data", 80, 8, false)
	b.Ldiq(1, int64(addr))
	b.Ldiq(2, 10) // counter
	b.Label("loop")
	b.Load(isa.OpLdq, 3, 1, 0)     // load
	b.Branch(isa.OpBeq, 3, "skip") // branch on loaded value
	b.OpI(isa.OpAdd, 4, 4, 1)
	b.Label("skip")
	b.OpI(isa.OpAdd, 1, 1, 8)
	b.OpI(isa.OpSub, 2, 2, 1)
	b.Branch(isa.OpBgt, 2, "loop")
	b.Halt()
	prog := b.MustProgram()
	m, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	a := New(prog)
	m.AddBatchObserver(a)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := a.TotalLoads(); got != 10 {
		t.Fatalf("loads = %d", got)
	}
	s := a.Sequences()
	// All 10 loads feed the BEQ directly.
	if s.LoadToBranchPct < 99 {
		t.Errorf("load-to-branch = %.1f%%, want 100%%", s.LoadToBranchPct)
	}
	if a.StaticLoadCount() != 1 {
		t.Errorf("static loads = %d, want 1", a.StaticLoadCount())
	}
	if c := a.CoverageAt(1); c < 0.999 {
		t.Errorf("single static load should cover everything, got %f", c)
	}
}

func TestChainDepthLimit(t *testing.T) {
	// A load whose value passes through more than chainDepth ALU ops
	// before the branch must NOT count as load-to-branch.
	b := isa.NewBuilder("deep")
	addr := b.Global("data", 8, 8, false)
	b.Ldiq(1, int64(addr))
	b.Load(isa.OpLdq, 3, 1, 0)
	for i := 0; i < chainDepth+2; i++ {
		b.OpI(isa.OpAdd, 3, 3, 0)
	}
	b.Branch(isa.OpBeq, 3, "end")
	b.Label("end")
	b.Halt()
	prog := b.MustProgram()
	m, _ := sim.New(prog)
	a := New(prog)
	m.AddBatchObserver(a)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if s := a.Sequences(); s.LoadToBranchPct != 0 {
		t.Errorf("deep chain counted as load-to-branch: %.1f%%", s.LoadToBranchPct)
	}
}

func TestBranchToLoadDetection(t *testing.T) {
	// A hard-to-predict branch immediately followed by a load with a
	// tight consumer: Table 4(b)'s pattern.
	b := isa.NewBuilder("b2l")
	addr := b.Global("data", 4096, 8, false)
	flags := b.Global("flags", 4096, 8, false)
	b.Ldiq(1, int64(addr))
	b.Ldiq(5, int64(flags))
	b.Ldiq(2, 400)
	b.Label("loop")
	b.Load(isa.OpLdq, 6, 5, 0)     // flag (alternating data)
	b.Branch(isa.OpBeq, 6, "skip") // hard branch (alternates)
	b.Load(isa.OpLdq, 3, 1, 0)     // load right after the branch
	b.OpI(isa.OpAdd, 4, 3, 1)      // tight consumer
	b.Label("skip")
	b.OpI(isa.OpAdd, 1, 1, 8)
	b.OpI(isa.OpAdd, 5, 5, 8)
	b.OpI(isa.OpSub, 2, 2, 1)
	b.Branch(isa.OpBgt, 2, "loop")
	b.Halt()
	prog := b.MustProgram()
	// Pseudo-random flags so the branch is genuinely hard.
	fl := make([]byte, 400*8)
	x := uint64(0x1234567)
	for i := 0; i < 400; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		fl[i*8] = byte((x >> 40) & 1)
	}
	sym, _ := prog.Symbol("flags")
	prog.Init = append(prog.Init, isa.DataInit{Addr: sym.Addr, Bytes: fl})

	m, _ := sim.New(prog)
	a := New(prog)
	m.AddBatchObserver(a)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := a.Sequences()
	if s.LoadAfterHardBranchPct < 10 {
		t.Errorf("after-hard-branch = %.1f%%, want substantial", s.LoadAfterHardBranchPct)
	}
}

// runHandBuilt runs a hand-built program under a live analysis.
func runHandBuilt(t *testing.T, prog *isa.Program) *Analysis {
	t.Helper()
	m, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	a := New(prog)
	m.AddBatchObserver(a)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestUncondBranchKeepsLoadChain: BR writes no register (the code
// generator emits it with Rd = 0), so more than chainDepth of them
// between a load into r0 and a branch on r0 leave the load feeding
// the branch directly.
func TestUncondBranchKeepsLoadChain(t *testing.T) {
	b := isa.NewBuilder("br-chain")
	addr := b.Global("data", 8, 8, false)
	b.Ldiq(1, int64(addr))
	b.Load(isa.OpLdq, 0, 1, 0)
	for i := 0; i <= chainDepth; i++ {
		l := fmt.Sprintf("l%d", i)
		b.Branch(isa.OpBr, 0, l)
		b.Label(l)
	}
	b.Branch(isa.OpBeq, 0, "end")
	b.Label("end")
	b.Halt()
	a := runHandBuilt(t, b.MustProgram())
	if s := a.Sequences(); s.LoadToBranchPct != 100 {
		t.Errorf("load-to-branch = %.1f%%, want 100%%", s.LoadToBranchPct)
	}
}

// TestUncondBranchKeepsPendingLoad: a BR between a load right after a
// conditional branch and the load's consumer does not disarm the
// pending load, so the branch-to-load sequence is recorded.
func TestUncondBranchKeepsPendingLoad(t *testing.T) {
	b := isa.NewBuilder("br-pending")
	addr := b.Global("data", 8, 8, false)
	b.Ldiq(1, int64(addr))
	b.Branch(isa.OpBeq, isa.RZero, "load")
	b.Label("load")
	ld := b.Emit(isa.Inst{Op: isa.OpLdq, Rd: 0, Ra: 1})
	br := ld - 1
	b.Branch(isa.OpBr, 0, "use")
	b.Label("use")
	b.OpI(isa.OpAdd, 2, 0, 1)
	b.Halt()
	a := runHandBuilt(t, b.MustProgram())
	if got := a.Snapshot().AfterBranch[ld][br]; got != 1 {
		t.Errorf("branch-to-load (%d -> %d) recorded %d times, want 1", br, ld, got)
	}
}

func TestBranchesAccessor(t *testing.T) {
	a := analyze(t, "dnapenny")
	br := a.Snapshot().Branches
	if len(br) == 0 {
		t.Fatal("no branch statistics")
	}
	var exec uint64
	for _, s := range br {
		if s.Mispredicts > s.Executed {
			t.Fatal("mispredicts exceed executions")
		}
		exec += s.Executed
	}
	if exec != a.Mix().CondBranches {
		t.Errorf("per-branch executions %d != total cond branches %d",
			exec, a.Mix().CondBranches)
	}
}

// TestConcurrentReportsAfterObserve: a finished live analysis is
// rendered by many goroutines at once (a cached profile serving
// concurrent requests); the first report assembles the tables, and
// every render must see the same result.
func TestConcurrentReportsAfterObserve(t *testing.T) {
	a := analyze(t, "predator")
	const n = 8
	got := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			got[i] = RenderProfile("predator", "test", a, 10)
			a.Snapshot()
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("concurrent render %d differs", i)
		}
	}
}
