// Package pipeline provides the timing models that turn a committed
// instruction stream into cycle counts. The out-of-order model
// implements exactly the mechanism the paper describes in Section 2.2:
// a branch cannot resolve before its (load-fed) operands are ready, so
// the L1 hit latency of a load-to-branch sequence extends the
// misprediction penalty; and after a misprediction redirect the window
// is empty, so the L1 hit latency of branch-to-load sequences is fully
// exposed to the dependent instructions. An in-order issue mode models
// the Itanium 2 platform.
//
// The model is a dynamic dependence-graph (trace-driven) simulator: it
// consumes the committed instruction stream from the functional
// simulator, computes per-instruction dispatch/issue/complete/retire
// times subject to fetch width, window (ROB) occupancy, issue width,
// load ports, operand readiness, cache-determined load latencies,
// store-to-load forwarding, and branch-resolution-driven fetch
// redirects. Wrong-path instructions are not simulated; their
// first-order cost (an empty window after the redirect) is inherent in
// the redirect mechanism.
package pipeline

import (
	"fmt"
	"math"

	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// Fidelity selects how much of the committed stream the timing model
// sees. There is one model, Model in this package, on both tiers. The
// zero value is the full tier, so existing configurations keep their
// meaning; FidelityFast runs the same model on 1/32 sampled windows
// through internal/scoreboard, which extrapolates the result. Its speed
// and its error both come from that sampling.
type Fidelity uint8

const (
	// FidelityFull runs Model over the whole committed stream. The
	// paper-reproduction tier.
	FidelityFull Fidelity = iota
	// FidelityFast runs Model over the first 2^16 instructions of
	// every 2^21 and extrapolates cycles and event counts to the whole
	// run. Validated against the full tier by
	// internal/scoreboard/validate.
	FidelityFast
)

// String returns the flag spelling ("full" or "fast").
func (f Fidelity) String() string {
	if f == FidelityFast {
		return "fast"
	}
	return "full"
}

// ParseFidelity parses a tier name. The empty string means full, so
// absent JSON/flag values keep the paper-exact behavior unless the
// caller chooses a different default.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "", "full":
		return FidelityFull, nil
	case "fast":
		return FidelityFast, nil
	}
	return FidelityFull, fmt.Errorf("pipeline: unknown fidelity %q (full|fast)", s)
}

// Config parameterizes one modeled machine.
type Config struct {
	Name string

	// Fidelity selects the timing tier; the zero value is the full
	// stream. Routing happens in runner.Session — NewModel in this
	// package ignores it.
	Fidelity Fidelity

	// InOrder selects in-order issue (Itanium-style). Out-of-order
	// issue otherwise.
	InOrder bool

	FetchWidth  int // instructions entering the window per cycle
	IssueWidth  int // instructions issued per cycle
	RetireWidth int // instructions retired per cycle
	WindowSize  int // ROB entries (in-flight instruction limit)
	LoadPorts   int // loads issued per cycle

	// FrontEndDepth is the fetch-to-dispatch depth in cycles; it is
	// the refill delay a redirect pays on top of MispredictPenalty.
	FrontEndDepth int
	// MispredictPenalty is the fixed redirect cost added after the
	// mispredicted branch resolves.
	MispredictPenalty int

	// Execution latencies in cycles.
	IntALULat int
	IntMulLat int
	IntDivLat int
	FPALULat  int // add/sub/compare/convert
	FPMulLat  int
	FPDivLat  int
	BranchLat int // compare-resolved-to-branch-resolved

	// Cache is the data-cache hierarchy configuration, including the
	// L1/L2/memory load-to-use latencies.
	Cache cache.HierarchyConfig

	// Predictor names the branch predictor: "" is the paper's hybrid,
	// "bimodal" and "always-taken" the predictor ablation's weaker
	// ones. NewModel panics on any other name.
	Predictor string
}

// Stats is the outcome of a timing run.
type Stats struct {
	Instructions uint64
	Cycles       uint64

	Loads        uint64
	Stores       uint64
	CondBranches uint64
	Mispredicts  uint64

	L1Hits  uint64
	L2Hits  uint64
	MemHits uint64

	// LoadLatencySum accumulates the cache latency of every load, so
	// LoadLatencySum/Loads is the achieved AMAT.
	LoadLatencySum uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

// AMAT returns the measured average memory (load) access time.
func (s Stats) AMAT() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.LoadLatencySum) / float64(s.Loads)
}

const (
	numRegs  = isa.NumIntRegs + isa.NumFPRegs
	fpBase   = isa.NumIntRegs
	slotBits = 16
	slotSize = 1 << slotBits // per-cycle bookkeeping ring capacity
	slotMask = slotSize - 1
)

// cycleUse counts the instructions and loads issued in one cycle. A
// count never passes IssueWidth or LoadPorts, which NewModel caps at
// 255.
type cycleUse struct{ issue, loads uint8 }

// Model is a timing simulator fed with committed instructions. Both
// timing tiers feed it run chunks: Bind it to the program, then hand
// ObserveChunk to sim.Machine.SetChunkSink. It also implements
// sim.BatchObserver, the per-event reference path that tests and the
// benchmark drive; a model takes one of the two shapes per run.
type Model struct {
	cfg    Config
	dec    decodeTable // per-PC sources, destination, latency, class
	hier   *cache.Hierarchy
	pred   *bpred.DenseShard // the paper hybrid, owning every branch PC
	custom bpred.Predictor   // a named ablation predictor, in place of pred

	stats Stats

	regReady [numRegs]int64 // completion time of last producer

	// Per-cycle resource ring: the issue slots and load ports used in
	// each cycle. ringFloor tracks the oldest cycle whose entry is
	// still meaningful; entries are cleared lazily as the dispatch
	// frontier advances.
	used      [slotSize]cycleUse
	ringFloor int64 // all cycles below this have been cleared/passed

	// Front end.
	fetchCycle int64 // cycle in which the next instruction dispatches
	fetchCount int   // instructions already dispatched in fetchCycle
	fetchFloor int64 // earliest dispatch after the last redirect

	// Window occupancy: retire times of the last WindowSize
	// instructions (circular).
	retireRing []int64
	retirePos  int
	lastRetire int64
	retireCnt  int // retires in lastRetire cycle

	// In-order issue state.
	lastIssue    int64
	lastIssueCnt int

	// Store-to-load forwarding: 8-byte-aligned address -> completion
	// time of the last store. Emptied when it would pass 2^16 words.
	storeReady storeTable

	maxComplete int64
}

// Normalized returns cfg with unset structural and latency fields
// replaced by the defaults NewModel has always applied. Configs whose
// normalized forms agree, Name aside, time identically,
// which is how internal/runner keys stored timing results.
func (c Config) Normalized() Config {
	if c.FetchWidth <= 0 {
		c.FetchWidth = 4
	}
	if c.IssueWidth <= 0 {
		c.IssueWidth = 4
	}
	if c.RetireWidth <= 0 {
		c.RetireWidth = c.FetchWidth
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 64
	}
	if c.LoadPorts <= 0 {
		c.LoadPorts = 2
	}
	if c.BranchLat <= 0 {
		c.BranchLat = 1
	}
	if c.IntALULat <= 0 {
		c.IntALULat = 1
	}
	return c
}

// NewModel builds a timing model for cfg. It panics if IssueWidth or
// LoadPorts exceeds 255, the most a per-cycle slot counter holds, or if
// cfg.Predictor names no predictor.
func NewModel(cfg Config) *Model {
	cfg = cfg.Normalized()
	if cfg.IssueWidth > math.MaxUint8 || cfg.LoadPorts > math.MaxUint8 {
		panic(fmt.Sprintf("pipeline: IssueWidth %d / LoadPorts %d above %d", cfg.IssueWidth, cfg.LoadPorts, math.MaxUint8))
	}
	m := &Model{
		cfg:        cfg,
		hier:       cache.NewHierarchy(cfg.Cache),
		retireRing: make([]int64, cfg.WindowSize),
		storeReady: newStoreTable(),
		fetchCycle: int64(cfg.FrontEndDepth),
	}
	m.dec = newDecodeTable(&m.cfg)
	if cfg.Predictor == "" {
		m.pred = bpred.NewPaperDenseShard()
	} else {
		m.custom = newAblationPredictor(cfg.Predictor)
	}
	return m
}

// newAblationPredictor builds the named predictor ablation's predictor;
// it panics on a name it does not know.
func newAblationPredictor(name string) bpred.Predictor {
	switch name {
	case "bimodal":
		return bpred.NewBimodal()
	case "always-taken":
		return &bpred.Static{Taken: true}
	}
	panic(fmt.Sprintf("pipeline: unknown predictor %q", name))
}

// Reset returns m to the state NewModel gave it, in place, so one
// model can time run after run of the same machine: the cache
// hierarchy and the paper predictor are reset keeping their storage,
// the issue ring, retire ring, register scoreboard and statistics are
// zeroed, and the store-forwarding table is emptied keeping its
// capacity. A named ablation predictor is built afresh. The decoded
// program stays until the next Bind, which a reset model needs before
// it takes chunks of another program.
func (m *Model) Reset() {
	m.hier.Reset()
	if m.pred != nil {
		m.pred.Reset()
	} else {
		m.custom = newAblationPredictor(m.cfg.Predictor)
	}
	m.stats = Stats{}
	m.regReady = [numRegs]int64{}
	clear(m.used[:])
	m.ringFloor = 0
	m.fetchCycle = int64(m.cfg.FrontEndDepth)
	m.fetchCount = 0
	m.fetchFloor = 0
	clear(m.retireRing)
	m.retirePos = 0
	m.lastRetire = 0
	m.retireCnt = 0
	m.lastIssue = 0
	m.lastIssueCnt = 0
	m.storeReady.reset()
	m.maxComplete = 0
}

// Config returns the machine configuration.
func (m *Model) Config() Config { return m.cfg }

// Stats returns the statistics accumulated so far. Cycles is the
// completion time of the latest instruction.
func (m *Model) Stats() Stats {
	s := m.stats
	s.Cycles = uint64(m.maxComplete)
	return s
}

var _ sim.BatchObserver = (*Model)(nil)

// ObserveBatch implements sim.BatchObserver: each slab advances the
// timing model with direct calls, avoiding per-instruction interface
// dispatch. No event escapes the callback (the simulator recycles the
// slab afterwards).
func (m *Model) ObserveBatch(evs []sim.Event) {
	for i := range evs {
		ev := &evs[i]
		m.observe(m.dec.lookup(ev.PC, ev.Inst), ev.PC, ev.Addr, ev.Taken)
	}
}

// Bind decodes every instruction of prog once, up front. ObserveChunk
// takes only chunks of the program the model is bound to; binding a
// reset model to another program replaces the decoded one.
func (m *Model) Bind(prog *isa.Program) {
	m.dec.bind(prog)
}

// ObserveChunk advances the model over one run chunk of the bound
// program, as ObserveBatch would over the chunk's events: it walks the
// run tokens, takes load and store addresses from Addrs and
// conditional outcomes from BrTaken, and takes every unconditional
// branch. It is a sim.Machine.SetChunkSink callback and retains
// nothing of ch.
func (m *Model) ObserveChunk(ch *runstream.Chunk) {
	runs, ents := ch.Dict.Runs, m.dec.ents
	addrs, nbr := ch.Addrs, 0
	for _, tk := range ch.Tokens {
		r := runs[tk.ID]
		for range tk.Rep {
			for pc := r.PC; pc < r.PC+r.N; pc++ {
				d := &ents[pc]
				var addr uint64
				taken := d.class&classBranch != 0
				switch {
				case d.class&(classLoad|classStore) != 0:
					addr, addrs = addrs[0], addrs[1:]
				case d.class&classCondBranch != 0:
					taken = ch.BrTaken[nbr>>3]>>(nbr&7)&1 != 0
					nbr++
				}
				m.observe(d, pc, addr, taken)
			}
		}
	}
}

// observe advances the timing model by one committed instruction: d
// decoded at pc, with its effective address and branch outcome.
func (m *Model) observe(d *decoded, pc int32, addr uint64, taken bool) {
	m.stats.Instructions++

	// ---- Front end: dispatch subject to width, redirects, window.
	dispatch := m.fetchCycle
	if dispatch < m.fetchFloor {
		dispatch = m.fetchFloor
		m.fetchCount = 0
	}
	// Window occupancy: cannot dispatch until the instruction
	// WindowSize back has retired.
	oldestRetire := m.retireRing[m.retirePos]
	if dispatch <= oldestRetire {
		dispatch = oldestRetire + 1
		m.fetchCount = 0
	}
	if dispatch > m.fetchCycle {
		m.fetchCycle = dispatch
		m.fetchCount = 0
	}
	m.fetchCount++
	if m.fetchCount >= m.cfg.FetchWidth {
		m.fetchCycle++
		m.fetchCount = 0
	}
	m.advanceRing(dispatch)

	// ---- Operand readiness.
	ready := max(dispatch, m.regReady[d.srcs[0]], m.regReady[d.srcs[1]], m.regReady[d.srcs[2]])

	isLoad := d.class&classLoad != 0
	isStore := d.class&classStore != 0
	if isLoad {
		if t, ok := m.storeReady.lookup(addr &^ 7); ok && t > ready {
			// Store-to-load forwarding: data available one cycle
			// after the store completes.
			ready = t
		}
	}

	// ---- Issue: find a cycle >= ready with a free issue slot (and
	// load port for loads). In-order mode additionally serializes
	// issue in program order.
	issue := ready
	if m.cfg.InOrder {
		if issue < m.lastIssue {
			issue = m.lastIssue
		}
		if issue == m.lastIssue && m.lastIssueCnt >= m.cfg.IssueWidth {
			issue++
		}
	}
	issue = m.findIssueSlot(issue, isLoad)
	if m.cfg.InOrder {
		if issue > m.lastIssue {
			m.lastIssue = issue
			m.lastIssueCnt = 1
		} else {
			m.lastIssueCnt++
		}
	}

	// ---- Execute.
	lat := int64(d.lat)
	if isLoad || isStore {
		lvl, clat := m.hier.Access(addr, isStore)
		if isLoad {
			m.stats.Loads++
			m.stats.LoadLatencySum += uint64(clat)
			lat = int64(clat)
			switch lvl {
			case cache.LevelL1:
				m.stats.L1Hits++
			case cache.LevelL2:
				m.stats.L2Hits++
			default:
				m.stats.MemHits++
			}
		} else {
			m.stats.Stores++
			// Stores complete when address+data are ready; the
			// write drains from the store queue off the critical
			// path.
			lat = 1
		}
	}
	complete := issue + lat
	if isStore {
		m.storeReady.store(addr&^7, complete)
	}
	if d.dst >= 0 {
		m.regReady[d.dst] = complete
	}

	// ---- Branch resolution and misprediction redirect.
	if d.class&classCondBranch != 0 {
		m.stats.CondBranches++
		var miss bool
		if m.custom != nil {
			miss = m.custom.Predict(pc) != taken
			m.custom.Update(pc, taken)
		} else {
			miss = m.pred.Observe(pc, taken)
		}
		if miss {
			m.stats.Mispredicts++
			floor := complete + int64(m.cfg.MispredictPenalty+m.cfg.FrontEndDepth)
			if floor > m.fetchFloor {
				m.fetchFloor = floor
			}
		}
	}
	// Taken control flow ends the fetch group: even a correctly
	// predicted taken branch redirects the fetch PC, so no further
	// instructions enter the pipe this cycle. Branchy code therefore
	// loses fetch bandwidth that straight-line (if-converted) code
	// keeps — a first-order effect of the paper's transformation.
	if taken && d.class&classBranch != 0 {
		if m.fetchCycle <= dispatch {
			m.fetchCycle = dispatch + 1
		}
		m.fetchCount = 0
	}

	// ---- Retire in order, RetireWidth per cycle.
	retire := complete
	if retire < m.lastRetire {
		retire = m.lastRetire
	}
	if retire == m.lastRetire {
		m.retireCnt++
		if m.retireCnt > m.cfg.RetireWidth {
			retire++
			m.retireCnt = 1
		}
	} else {
		m.retireCnt = 1
	}
	m.lastRetire = retire
	m.retireRing[m.retirePos] = retire
	m.retirePos++
	if m.retirePos == len(m.retireRing) {
		m.retirePos = 0
	}

	if complete > m.maxComplete {
		m.maxComplete = complete
	}
}

// findIssueSlot returns the first cycle >= want with a free issue slot
// (and, for loads, a free load port), and consumes the slot.
func (m *Model) findIssueSlot(want int64, isLoad bool) int64 {
	if want < m.ringFloor {
		want = m.ringFloor
	}
	for {
		idx := want & slotMask
		u := &m.used[idx]
		if int(u.issue) < m.cfg.IssueWidth && (!isLoad || int(u.loads) < m.cfg.LoadPorts) {
			u.issue++
			if isLoad {
				u.loads++
			}
			return want
		}
		want++
	}
}

// advanceRing clears per-cycle slot state that the dispatch frontier
// has passed, keeping the ring coherent. Issue cycles can run ahead of
// dispatch by at most WindowSize * worst-case-latency, far below the
// ring capacity.
func (m *Model) advanceRing(dispatch int64) {
	// Keep a full window of history; clear everything older.
	target := dispatch - 1
	if target <= m.ringFloor {
		return
	}
	if target-m.ringFloor > slotSize {
		m.ringFloor = target - slotSize
	}
	for c := m.ringFloor; c < target; c++ {
		idx := c & slotMask
		m.used[idx] = cycleUse{}
	}
	m.ringFloor = target
}
