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

	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// Fidelity selects the timing backend tier for a Config. The zero
// value is the full cycle-level model, so existing configurations keep
// their meaning; FidelityFast routes to the scoreboard latency model
// (internal/scoreboard), which trades per-slot resource modeling for
// an order-of-magnitude lower cost per instruction.
type Fidelity uint8

const (
	// FidelityFull is the out-of-order dependence-graph Model in this
	// package: per-slot issue search, window occupancy, load ports,
	// store-to-load forwarding. The paper-reproduction tier.
	FidelityFull Fidelity = iota
	// FidelityFast is the reg-ready-time scoreboard tier: one ready
	// time per register, width-adjusted issue cursor, branch predictor
	// and cache hierarchy, sampled observation. Validated against the
	// full tier by internal/scoreboard/validate.
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

	// Fidelity selects the timing backend tier; the zero value is the
	// full model. Routing happens in runner.Session — NewModel in this
	// package always builds the full model.
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

	// Predictor constructs the branch predictor; nil means the
	// paper's hybrid predictor.
	Predictor func() bpred.Predictor
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

// Model is a timing simulator fed with committed instructions. It
// implements sim.BatchObserver so it can be attached directly to a
// functional machine.
type Model struct {
	cfg  Config
	hier *cache.Hierarchy
	bp   *bpred.Tracker

	stats Stats

	regReady [numRegs]int64 // completion time of last producer

	// Per-cycle resource rings. ringBase tracks the oldest cycle
	// whose slots are still meaningful; slots are cleared lazily as
	// the dispatch frontier advances.
	issueUsed [slotSize]uint16
	loadUsed  [slotSize]uint16
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
	// time of the last store. Bounded by periodic clearing.
	storeReady map[uint64]int64

	maxComplete int64
}

// Normalized returns cfg with unset structural and latency fields
// replaced by the defaults NewModel has always applied, so both timing
// tiers (and any code reading ExecLatency) see the same machine.
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

// NewModel builds a timing model for cfg.
func NewModel(cfg Config) *Model {
	cfg = cfg.Normalized()
	newPred := cfg.Predictor
	if newPred == nil {
		newPred = func() bpred.Predictor { return bpred.NewPaperHybrid() }
	}
	return &Model{
		cfg:        cfg,
		hier:       cache.NewHierarchy(cfg.Cache),
		bp:         bpred.NewTracker(newPred()),
		retireRing: make([]int64, cfg.WindowSize),
		storeReady: make(map[uint64]int64, 1<<12),
		fetchCycle: int64(cfg.FrontEndDepth),
	}
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

// Branches exposes the per-branch predictor statistics (Table 4 uses
// the same predictor state the timing run trained).
func (m *Model) Branches() *bpred.Tracker { return m.bp }

// Hierarchy exposes the cache state.
func (m *Model) Hierarchy() *cache.Hierarchy { return m.hier }

var _ sim.BatchObserver = (*Model)(nil)

// ObserveBatch implements sim.BatchObserver: each slab advances the
// timing model with direct calls, avoiding per-instruction interface
// dispatch. No event escapes the callback (the simulator recycles the
// slab afterwards).
func (m *Model) ObserveBatch(evs []sim.Event) {
	for i := range evs {
		m.observe(&evs[i])
	}
}

// observe advances the timing model by one committed instruction.
func (m *Model) observe(ev *sim.Event) {
	in := ev.Inst
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
	ready := dispatch
	var srcs [3]int16
	n, dst := Deps(in, &srcs)
	for i := 0; i < n; i++ {
		if t := m.regReady[srcs[i]]; t > ready {
			ready = t
		}
	}

	isLoad := isa.IsLoad(in.Op)
	isStore := isa.IsStore(in.Op)
	if isLoad {
		if t, ok := m.storeReady[ev.Addr&^7]; ok && t > ready {
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
	lat := int64(m.cfg.ExecLatency(in.Op))
	if isLoad || isStore {
		lvl, clat := m.hier.Access(ev.Addr, isStore)
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
		m.storeReady[ev.Addr&^7] = complete
		if len(m.storeReady) > 1<<16 {
			clear(m.storeReady)
		}
	}
	if dst >= 0 {
		m.regReady[dst] = complete
	}

	// ---- Branch resolution and misprediction redirect.
	if isa.IsCondBranch(in.Op) {
		m.stats.CondBranches++
		if m.bp.Observe(ev.PC, ev.Taken) {
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
	if ev.Taken && isa.IsBranch(in.Op) {
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
		if int(m.issueUsed[idx]) < m.cfg.IssueWidth &&
			(!isLoad || int(m.loadUsed[idx]) < m.cfg.LoadPorts) {
			m.issueUsed[idx]++
			if isLoad {
				m.loadUsed[idx]++
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
		m.issueUsed[idx] = 0
		m.loadUsed[idx] = 0
	}
	m.ringFloor = target
}

// ExecLatency returns the functional-unit latency for op under this
// configuration. Both timing tiers read latencies through here; call
// it on a Normalized config, or unset latency fields come back 0.
func (c *Config) ExecLatency(op isa.Op) int {
	switch op {
	case isa.OpMul:
		return c.IntMulLat
	case isa.OpDiv, isa.OpRem:
		return c.IntDivLat
	case isa.OpAddt, isa.OpSubt, isa.OpCmpTeq, isa.OpCmpTlt, isa.OpCmpTle,
		isa.OpCvtQT, isa.OpCvtTQ, isa.OpFMov, isa.OpFNeg:
		return c.FPALULat
	case isa.OpMult:
		return c.FPMulLat
	case isa.OpDivt:
		return c.FPDivLat
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBle, isa.OpBgt, isa.OpBge:
		return c.BranchLat
	default:
		return c.IntALULat
	}
}

// Deps fills srcs with the register-file indices (int regs 0..31, FP
// regs 32..63) the instruction reads, and returns the count and the
// destination index (-1 if none). The hard-wired zero registers are
// never reported: they are always ready and never written. Both timing
// tiers share this dependence extraction.
func Deps(in *isa.Inst, srcs *[3]int16) (n int, dst int) {
	dst = -1
	addSrc := func(r int16) {
		if r == isa.RZero || r == fpBase+isa.FZero {
			return
		}
		srcs[n] = r
		n++
	}
	setDst := func(r int16) {
		if r == isa.RZero || r == fpBase+isa.FZero {
			return
		}
		dst = int(r)
	}
	op := in.Op
	switch {
	case op == isa.OpNop || op == isa.OpHalt || op == isa.OpBr:
	case op == isa.OpLdiq:
		setDst(int16(in.Rd))
	case op == isa.OpLda:
		addSrc(int16(in.Ra))
		setDst(int16(in.Rd))
	case isa.IsCmov(op):
		addSrc(int16(in.Ra))
		addSrc(int16(in.Rb))
		addSrc(int16(in.Rd)) // old value of the destination
		setDst(int16(in.Rd))
	case op == isa.OpLdq || op == isa.OpLdbu:
		addSrc(int16(in.Ra))
		setDst(int16(in.Rd))
	case op == isa.OpLdt:
		addSrc(int16(in.Ra))
		setDst(fpBase + int16(in.Rd))
	case op == isa.OpStq || op == isa.OpStb:
		addSrc(int16(in.Ra))
		addSrc(int16(in.Rb))
	case op == isa.OpStt:
		addSrc(int16(in.Ra))
		addSrc(fpBase + int16(in.Rb))
	case op == isa.OpAddt || op == isa.OpSubt || op == isa.OpMult || op == isa.OpDivt:
		addSrc(fpBase + int16(in.Ra))
		addSrc(fpBase + int16(in.Rb))
		setDst(fpBase + int16(in.Rd))
	case op == isa.OpCmpTeq || op == isa.OpCmpTlt || op == isa.OpCmpTle:
		addSrc(fpBase + int16(in.Ra))
		addSrc(fpBase + int16(in.Rb))
		setDst(int16(in.Rd))
	case op == isa.OpCvtQT:
		addSrc(int16(in.Ra))
		setDst(fpBase + int16(in.Rd))
	case op == isa.OpCvtTQ:
		addSrc(fpBase + int16(in.Ra))
		setDst(int16(in.Rd))
	case op == isa.OpFMov || op == isa.OpFNeg:
		addSrc(fpBase + int16(in.Ra))
		setDst(fpBase + int16(in.Rd))
	case isa.IsCondBranch(op):
		addSrc(int16(in.Ra))
	case op == isa.OpJsr:
		setDst(int16(in.Rd))
	case op == isa.OpRet:
		addSrc(int16(in.Ra))
	case op == isa.OpPrint:
		addSrc(int16(in.Ra))
	case op == isa.OpPrintF:
		addSrc(fpBase + int16(in.Ra))
	default: // integer ALU
		addSrc(int16(in.Ra))
		if !in.HasImm {
			addSrc(int16(in.Rb))
		}
		setDst(int16(in.Rd))
	}
	return n, dst
}
