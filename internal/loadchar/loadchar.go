// Package loadchar is the paper's analysis framework: in one
// instrumented pass over a program's committed instruction stream it
// gathers everything Sections 2 and 3 measure — the instruction mix
// (Figure 1, Table 1), the static-load coverage curve (Figure 2),
// data-cache behaviour per level and per static load (Tables 2/5),
// per-branch prediction accuracy with the hybrid per-static-branch
// predictor (Tables 4/5), dynamic load-to-branch dependence sequences
// and branch-to-load sequences (Table 4), source-line attribution of
// hot loads (Table 5), and the Section 3 optimization-candidate
// selection.
//
// There is one characterization engine, and it works on runs: the
// committed stream arrives as runstream chunks — straight-line PC runs
// from a dictionary, plus the conditional-branch taken bits and the
// memory addresses — built by the simulator's interpreter during a
// run (sim.Machine.SetChunkSink), rebuilt from event slabs by a
// sim.Builder, or decoded from a trace. The run engine characterizes each run once
// (instruction mix by block, the dependence and sequence machines
// memoized over (state, run) pairs), while the predictor and memory
// lanes replay the taken and address columns through the paper's
// hybrid predictor and cache hierarchy. A live Analysis (New) feeds
// the engine chunk by chunk; AnalyzeRuns drives it over a recorded
// trace, optionally with the lanes split into exact shards.
package loadchar

import (
	"sync"

	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// chainDepth bounds how many register-to-register operations a load's
// value may flow through while still counting as "feeding" a branch
// (the paper's tight dependence chains are 1-3 operations).
const chainDepth = 4

// proximity bounds, in dynamic instructions, how soon after a branch
// a load must execute (and how soon its value must be consumed) to
// count as a branch-to-load sequence.
const proximity = 4

// chunkEvents is the chunk size of a live analysis's own Builder: the
// trace chunk size, so the engine sees the same chunks whether it is
// fed events or a recording's shared chunks.
const chunkEvents = 1 << 14

// regDep tracks which loads a register's current value derives from.
type regDep struct {
	depth int8  // -1: not load-derived
	srcA  int32 // static PC of contributing load
	srcB  int32 // second contributing load or -1
}

// Analysis performs the full characterization. Create with New, attach
// to a machine (or feed it chunks), then query the report methods. It
// implements sim.BatchObserver. Observation is
// single-goroutine; once it has ended, the report methods are safe for
// concurrent use.
type Analysis struct {
	prog *isa.Program

	// rep is the report state every report method reads. A live
	// analysis assembles it from its engine on demand.
	rep Snapshot

	// live is the engine of an analysis that can still observe; nil for
	// a report-only analysis (FromSnapshot, AnalyzeRuns).
	live *liveEngine

	// Exec records how a replay analysis actually ran (worker count and
	// any serial-collapse reason). Zero for live analyses.
	Exec Execution
}

// liveEngine is a live analysis's run-native state: the run engine
// with one fused predictor lane and one memory lane, plus the Builder
// that turns observed event slabs into chunks.
type liveEngine struct {
	eng *runEngine
	bp  *bpLane
	mem *memLane
	ann chunkAnn
	b   *sim.Builder // created by the first ObserveBatch
	// mu serializes sync, so report methods may run concurrently once
	// observation has ended (a cached profile serves many requests).
	mu sync.Mutex
	// dirty marks chunks observed since the report state was last
	// assembled.
	dirty bool
}

// New creates an analysis for the given program, using the paper's
// cache configuration and hybrid predictor.
func New(p *isa.Program) *Analysis {
	return &Analysis{prog: p, live: &liveEngine{
		eng:   newRunEngine(p),
		bp:    newBpLane(1, 0),
		mem:   newMemLane(cache.PaperConfig(), len(p.Insts), 1, 0),
		dirty: true,
	}}
}

var _ sim.BatchObserver = (*Analysis)(nil)

// Reset returns a live analysis to the state New gives, keeping its
// allocated storage: occurrence counts, predictor state and cache
// contents are cleared, the run engine returns to its empty machine
// state, any partial Builder chunk is dropped, and the report state
// is marked stale, so the next report rebuilds it from the cleared
// lanes in its own storage. The engine keeps its interned runs and
// states and its transition memo: a transition is a pure function of
// the state and the run, so a kept one is exactly what a fresh engine
// would evaluate. A sampled replay worker resets one analysis between
// intervals instead of building a new one. Like ObserveChunk, Reset
// is part of single-goroutine observation; it panics on a report-only
// analysis.
func (a *Analysis) Reset() {
	l := a.observing()
	l.eng.reset()
	l.bp.reset()
	l.mem.reset()
	l.b = nil
	l.dirty = true
	a.Exec = Execution{}
}

// observing returns the live engine, panicking on a report-only
// analysis.
func (a *Analysis) observing() *liveEngine {
	if a.live == nil {
		panic("loadchar: analysis restored from a snapshot cannot observe events")
	}
	return a.live
}

// ObserveBatch implements sim.BatchObserver: the slab goes to the
// analysis's own sim.Builder, which hands each finished chunk to
// ObserveChunk. Nothing here retains events, as required by the
// sim.Event contract.
func (a *Analysis) ObserveBatch(evs []sim.Event) {
	l := a.observing()
	if l.b == nil {
		l.b = sim.NewBuilder(a.prog, chunkEvents, a.ObserveChunk)
	}
	l.b.ObserveBatch(evs)
}

// ObserveChunk characterizes one dictionary-backed chunk, in commit
// order after every chunk before it: the run engine advances over its
// tokens, then the predictor and memory lanes replay its taken and
// address columns. A recording hands the same chunks to the trace
// writer, so runs are built once. ch is not retained.
func (a *Analysis) ObserveChunk(ch *runstream.Chunk) {
	l := a.observing()
	l.eng.processChunk(ch, &l.ann)
	l.bp.chunk(ch, &l.ann)
	l.mem.chunk(ch, &l.ann)
	l.dirty = true
}

// Err reports the analysis's own Builder's sticky error: a stream fed
// through ObserveBatch that is not run-representable stops being
// characterized at the first bad event.
func (a *Analysis) Err() error {
	if a.live == nil || a.live.b == nil {
		return nil
	}
	return a.live.b.Err()
}

// sync brings a live analysis's report state up to date: the partial
// chunk is flushed to the engine and the state is reassembled. Every
// report method calls it first, so reports and snapshots taken
// mid-stream are exact.
func (a *Analysis) sync() {
	l := a.live
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.b != nil {
		l.b.Flush()
	}
	if l.dirty {
		a.assemble(l.eng, []*bpLane{l.bp}, []*memLane{l.mem})
		l.dirty = false
	}
}

// seal turns a live analysis report-only, dropping its engine.
func (a *Analysis) seal(exec Execution) {
	a.sync()
	a.live = nil
	a.Exec = exec
}

// assemble rebuilds the report state from a run engine and its lanes:
// the engine's characterizations multiplied out by occurrence, the
// predictor shards' tables unioned, and the memory shards' counters
// summed. The state is rebuilt in its own storage and never aliases
// lane state, so a live analysis can keep observing afterwards.
func (a *Analysis) assemble(eng *runEngine, bps []*bpLane, mems []*memLane) {
	n := len(a.prog.Insts)
	r := &a.rep
	*r = Snapshot{
		LoadCounts:  zeroed(r.LoadCounts, n),
		L1Miss:      zeroed(r.L1Miss, n),
		Branches:    cleared(r.Branches),
		ToBranch:    zeroed(r.ToBranch, n),
		FedBranch:   cleared(r.FedBranch),
		AfterBranch: cleared(r.AfterBranch),
	}
	eng.finish(r)
	for _, l := range bps {
		l.sh.MergeInto(r.Branches, &r.BranchTotal)
		r.FedBranchMiss += l.fedMiss
	}
	for _, l := range mems {
		r.L1Stats.Add(l.hier.L1().Stats())
		r.L2Stats.Add(l.hier.L2().Stats())
		for pc, v := range l.l1miss {
			if v != 0 {
				r.L1Miss[pc] += v
			}
		}
	}
}

// zeroed returns s resized to n zeroed entries, reusing its storage.
func zeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// cleared returns m emptied, or a new map if m is nil.
func cleared[V any](m map[int32]V) map[int32]V {
	if m == nil {
		return make(map[int32]V)
	}
	clear(m)
	return m
}

// regIndex maps an instruction register operand to the dependence
// table; FP registers live above the integer file.
func fpIdx(r uint8) int { return isa.NumIntRegs + int(r) }

func isZeroReg(r uint8, isFP bool) bool {
	if isFP {
		return r == isa.FZero
	}
	return r == isa.RZero
}
