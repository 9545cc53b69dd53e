package loadchar

import (
	"reflect"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// oracle is the per-event reference characterization the run engine
// must reproduce exactly: five passes over every committed event —
// instruction mix, cache hierarchy, hybrid predictor, and the
// dependence and sequence machines counting directly — with the
// predictor's mispredict bits handed to the dependence pass within
// each slab. It shares only the dependence and sequence machines with
// production code.
type oracle struct {
	prog *isa.Program
	// rep holds every count but the cache's and predictor's, which
	// analysis reads out of hier and bp.
	rep  Snapshot
	hier *cache.Hierarchy
	bp   *bpred.Tracker
	dep  depPass
	seq  seqPass
	// mis holds the slab's mispredict bits, one per conditional branch;
	// br is the dependence pass's cursor into it.
	mis []bool
	br  int
}

func newOracle(prog *isa.Program) *oracle {
	n := len(prog.Insts)
	o := &oracle{
		prog: prog,
		rep: Snapshot{
			LoadCounts:  make([]uint64, n),
			L1Miss:      make([]uint64, n),
			ToBranch:    make([]uint64, n),
			FedBranch:   make(map[int32]map[int32]uint64),
			AfterBranch: make(map[int32]map[int32]uint64),
		},
		hier: cache.NewHierarchy(cache.PaperConfig()),
		bp:   bpred.NewTracker(bpred.NewPaperHybrid()),
	}
	for i := range o.dep.deps {
		o.dep.deps[i].depth = -1
	}
	o.dep.rec = func(branchPC int32, fed bool, srcA, srcB int32) {
		mis := o.mis[o.br]
		o.br++
		if !fed {
			return
		}
		o.rep.FedBranchExec++
		if mis {
			o.rep.FedBranchMiss++
		}
		o.credit(srcA, branchPC)
		if srcB >= 0 && srcB != srcA {
			o.credit(srcB, branchPC)
		}
	}
	o.seq.rec = func(loadPC, branchPC int32) { bump(o.rep.AfterBranch, loadPC, branchPC) }
	return o
}

func bump(m map[int32]map[int32]uint64, k1, k2 int32) {
	inner := m[k1]
	if inner == nil {
		inner = make(map[int32]uint64)
		m[k1] = inner
	}
	inner[k2]++
}

func (o *oracle) credit(loadPC, branchPC int32) {
	o.rep.ToBranch[loadPC]++
	bump(o.rep.FedBranch, loadPC, branchPC)
}

func (o *oracle) ObserveBatch(evs []sim.Event) {
	o.mis = o.mis[:0]
	for i := range evs {
		ev := &evs[i]
		op := ev.Inst.Op
		cls := isa.ClassOf(op)
		o.rep.Total++
		o.rep.ClassCounts[cls]++
		if isa.IsFloat(op) {
			o.rep.FPCount++
			if cls == isa.ClassLoad {
				o.rep.FPLoads++
			}
		}
		switch cls {
		case isa.ClassLoad:
			o.rep.LoadCounts[ev.PC]++
			if lvl, _ := o.hier.Access(ev.Addr, false); lvl != cache.LevelL1 {
				o.rep.L1Miss[ev.PC]++
			}
		case isa.ClassStore:
			o.hier.Access(ev.Addr, true)
		case isa.ClassCondBranch:
			o.mis = append(o.mis, o.bp.Observe(ev.PC, ev.Taken))
		}
	}
	o.br = 0
	o.dep.observe(evs)
	o.seq.observe(evs)
}

// analysis returns a report-only view of the oracle's current counts;
// it aliases the oracle, so use it before observing further.
func (o *oracle) analysis() *Analysis {
	s := o.rep
	s.L1Stats, s.L2Stats = o.hier.L1().Stats(), o.hier.L2().Stats()
	s.Branches, s.BranchTotal = o.bp.PerBranch(), o.bp.Total()
	return &Analysis{prog: o.prog, rep: s}
}

// captureSlabs runs the program live at test size, capturing the
// committed stream into owned slabs alongside a live analysis.
func captureSlabs(t *testing.T, name string) (*isa.Program, *Analysis, [][]sim.Event) {
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
	live := New(prog)
	m.AddBatchObserver(live)
	var slabs [][]sim.Event
	m.AddBatchObserver(batchFunc(func(evs []sim.Event) {
		slabs = append(slabs, append([]sim.Event(nil), evs...))
	}))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return prog, live, slabs
}

type batchFunc func([]sim.Event)

func (f batchFunc) ObserveBatch(evs []sim.Event) { f(evs) }

// oracleOf runs the oracle over slabs.
func oracleOf(prog *isa.Program, slabs [][]sim.Event) *Analysis {
	o := newOracle(prog)
	for _, evs := range slabs {
		o.ObserveBatch(evs)
	}
	return o.analysis()
}

// TestRunNativeMatchesOracle pins the live analysis to the per-event
// oracle on every program: the full Snapshot (every counter) and the
// rendered profile must be identical, at Builder chunk sizes from one
// event to four trace chunks, and at mid-stream snapshots whose offsets
// line up with neither slabs nor chunks (sampled warm-up takes those).
func TestRunNativeMatchesOracle(t *testing.T) {
	for _, p := range bio.All() {
		prog, _, slabs := captureSlabs(t, p.Name)
		var evs []sim.Event
		for _, s := range slabs {
			evs = append(evs, s...)
		}
		var cuts []int
		for k := 1; k <= 3; k++ {
			off := len(evs)*k/4 + 1
			for off%sim.BatchSize == 0 || off%7 == 0 {
				off++
			}
			cuts = append(cuts, off)
		}
		cuts = append(cuts, len(evs))

		for _, chunk := range []int{1, 7, 4096, chunkEvents} {
			// The default size runs through the analysis's own Builder,
			// which Snapshot flushes; other sizes feed ObserveChunk from
			// a Builder of that size, flushed by hand at each cut.
			a := New(prog)
			feed, flush, berr := a.ObserveBatch, func() {}, a.Err
			if chunk != chunkEvents {
				b := sim.NewBuilder(prog, chunk, a.ObserveChunk)
				feed, flush, berr = b.ObserveBatch, b.Flush, b.Err
			}
			o := newOracle(prog)
			pos := 0
			for _, cut := range cuts {
				for pos < cut {
					end := min(pos+sim.BatchSize, cut)
					feed(evs[pos:end])
					o.ObserveBatch(evs[pos:end])
					pos = end
				}
				flush()
				want := o.analysis()
				if got, w := a.Snapshot(), want.Snapshot(); !reflect.DeepEqual(got, w) {
					t.Fatalf("%s chunk=%d: snapshot at event %d differs from the oracle", p.Name, chunk, cut)
				}
				if got, w := RenderProfile(p.Name, "test", a, 10), RenderProfile(p.Name, "test", want, 10); got != w {
					t.Fatalf("%s chunk=%d: profile at event %d differs from the oracle:\n--- oracle ---\n%s\n--- run-native ---\n%s",
						p.Name, chunk, cut, w, got)
				}
			}
			if err := berr(); err != nil {
				t.Fatalf("%s chunk=%d: %v", p.Name, chunk, err)
			}
		}
	}
}

// TestOneEventSlabsMatchBatch checks slab boundaries are invisible:
// the same stream delivered one event per ObserveBatch call
// characterizes identically to whole slabs.
func TestOneEventSlabsMatchBatch(t *testing.T) {
	prog, live, slabs := captureSlabs(t, "promlk")
	one := New(prog)
	for _, evs := range slabs {
		for i := range evs {
			one.ObserveBatch(evs[i : i+1])
		}
	}
	want := RenderProfile("promlk", "test", live, 10)
	if got := RenderProfile("promlk", "test", one, 10); got != want {
		t.Errorf("one-event slabs differ from whole slabs")
	}
}

// TestAnalysisRejectsUnrepresentableStream: an event stream that is
// not run-representable stops the analysis with a sticky error rather
// than characterizing garbage.
func TestAnalysisRejectsUnrepresentableStream(t *testing.T) {
	prog, _, slabs := captureSlabs(t, "predator")
	a := New(prog)
	bad := append([]sim.Event(nil), slabs[0]...)
	bad[10].Target = bad[11].PC + 1
	a.ObserveBatch(bad)
	if a.Err() == nil {
		t.Fatal("broken target chain accepted")
	}
}
