// Package scoreboard is the fast timing tier: a SimpleSim-style
// reg-ready-time model. Where the full model (internal/pipeline)
// searches per-cycle issue slots, tracks window occupancy, load ports,
// and store-to-load forwarding, the scoreboard keeps exactly one
// ready-time per architectural register and a width-adjusted issue
// cursor: per instruction
//
//	issue = max(readyAt[srcs], cursor, redirect floor)
//	readyAt[dst] = issue + execLatency   (cache latency for loads)
//
// with a branch predictor and the two-level cache hierarchy retained,
// because the paper's effect — load latency extending the mispredict
// penalty, and redirects exposing load latency — lives entirely in
// latencies, mispredicts, and cache hits. No window, no ring, no
// per-slot search: the model is a handful of adds and compares per
// instruction. That makes it only about 25–30% cheaper than the full
// tier per observed event; the fast tier's speed comes from sampling,
// which lets it observe 1/32 of the stream.
//
// The model implements the same sim.BatchObserver contract as
// pipeline.Model and is sampling-aware: attached to a machine with
// sim.SetSampling, it observes a deterministic subset of the stream
// and Finalize extrapolates cycle and event counts to the full run.
// Absolute cycle counts are approximate by construction; the
// transformed/original speedup ratios the paper's Table 8 and Figure 9
// report are validated against the full tier per program by
// internal/scoreboard/validate, with tolerances recorded there and in
// DESIGN.md §10.
package scoreboard

import (
	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/sim"
)

const numRegs = isa.NumIntRegs + isa.NumFPRegs

// stBufSize is the store-forwarding buffer size (power of two).
const stBufSize = 256

// Sampling window for fast-tier runs: observe the first 2^16
// committed instructions of every 2^21-instruction window (1/32 of
// the stream). The observe length matches sim.CancelCheckInterval so
// an observed window is exactly one execution chunk; the skipped 31/32
// run at bare functional speed. Windows are aligned to the committed
// instruction count, so sampled runs are fully deterministic.
const (
	SampleObserve = 1 << 16
	SamplePeriod  = 1 << 21
)

// Model is the scoreboard timing simulator. Create with NewModel,
// attach via sim.Machine.AddBatchObserver, and after the run call
// Finalize with the functional instruction count before reading Stats.
type Model struct {
	cfg    pipeline.Config
	hier   *cache.Hierarchy
	pred   *bpred.DenseShard // the paper hybrid, owning every branch PC
	custom bpred.Predictor   // overrides pred when cfg.Predictor is set

	stats pipeline.Stats

	regReady [numRegs]int64 // completion time of last producer

	// Dispatch cursor: the cycle the front end delivers the next
	// instruction; cursorCnt instructions have been delivered at
	// cursor. The cursor advances at IssueWidth per cycle, breaks on
	// taken branches, and jumps forward on mispredict redirects. On
	// out-of-order cores an instruction whose operands are late does
	// NOT hold the cursor back (infinite-window approximation — the
	// machine keeps dispatching past it); on in-order cores it does.
	cursor    int64
	cursorCnt int

	// Store-to-load forwarding, direct-mapped by 8-byte word: a load
	// that hits a recent store's address waits for the store's data
	// (the same memory dependence the full model tracks in a map).
	// Spill/reload pairs — the Pentium 4's register-starved codegen —
	// are the traffic this matters for.
	stAddr [stBufSize]uint64
	stTime [stBufSize]int64

	// width is the cursor's advance rate: min(IssueWidth, RetireWidth,
	// FetchWidth), the machine's sustainable instructions per cycle.
	width int

	// ring holds the completion times of the last WindowSize
	// instructions: an instruction cannot dispatch before the one
	// WindowSize ahead of it has completed, the ROB-full stall that
	// keeps the "infinite window" honest on long-latency chains.
	ring    []int64
	ringPos int

	maxComplete int64

	observed uint64 // events delivered (≤ total under sampling)
	total    uint64 // set by Finalize; 0 until then
}

// NewModel builds a scoreboard model for cfg. The configuration is
// interpreted identically to pipeline.NewModel where the fields apply
// (widths, latencies, cache geometry, mispredict penalty, predictor);
// window size, load ports, and retire width have no scoreboard
// equivalent and are ignored, and InOrder is moot because scoreboard
// issue is program-ordered by construction.
func NewModel(cfg pipeline.Config) *Model {
	cfg = cfg.Normalized()
	m := &Model{
		cfg:  cfg,
		hier: cache.NewHierarchy(cfg.Cache),
	}
	m.width = cfg.IssueWidth
	if cfg.RetireWidth < m.width {
		m.width = cfg.RetireWidth
	}
	if cfg.FetchWidth < m.width {
		m.width = cfg.FetchWidth
	}
	if m.width < 1 {
		m.width = 1
	}
	m.ring = make([]int64, cfg.WindowSize)
	if cfg.Predictor != nil {
		m.custom = cfg.Predictor()
	} else {
		m.pred = bpred.NewPaperDenseShard()
	}
	return m
}

// Config returns the machine configuration.
func (m *Model) Config() pipeline.Config { return m.cfg }

var _ sim.BatchObserver = (*Model)(nil)

// ObserveBatch implements sim.BatchObserver. No event escapes the
// callback (the simulator recycles the slab afterwards).
func (m *Model) ObserveBatch(evs []sim.Event) {
	for i := range evs {
		m.observe(&evs[i])
	}
}

func (m *Model) observe(ev *sim.Event) {
	in := ev.Inst
	m.observed++

	// ---- Dispatch: window-full stall, then the bandwidth cursor.
	if t := m.ring[m.ringPos]; t > m.cursor {
		m.cursor = t
		m.cursorCnt = 0
	}

	// ---- Issue: dispatched no earlier than the cursor, executed no
	// earlier than the operands' ready times.
	issue := m.cursor
	var srcs [3]int16
	n, dst := pipeline.Deps(in, &srcs)
	for i := 0; i < n; i++ {
		if t := m.regReady[srcs[i]]; t > issue {
			issue = t
		}
	}
	isLoad := isa.IsLoad(in.Op)
	isStore := isa.IsStore(in.Op)
	if isLoad {
		si := (ev.Addr >> 3) & (stBufSize - 1)
		if m.stTime[si] > issue && m.stAddr[si] == ev.Addr&^7 {
			issue = m.stTime[si]
		}
	}
	// In-order cores issue in program order: a stalled instruction
	// holds every later one back, so the stall propagates into the
	// cursor. Out-of-order cores dispatch past it.
	if m.cfg.InOrder && issue > m.cursor {
		m.cursor = issue
		m.cursorCnt = 0
	}
	m.cursorCnt++
	if m.cursorCnt >= m.width {
		m.cursor++
		m.cursorCnt = 0
	}

	// ---- Execute: unit latency, or cache latency for loads.
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
			// Stores drain off the critical path once issued.
			lat = 1
		}
	}
	complete := issue + lat
	if isStore {
		si := (ev.Addr >> 3) & (stBufSize - 1)
		m.stAddr[si] = ev.Addr &^ 7
		m.stTime[si] = complete
	}
	if dst >= 0 {
		m.regReady[dst] = complete
	}
	m.ring[m.ringPos] = complete
	m.ringPos++
	if m.ringPos == len(m.ring) {
		m.ringPos = 0
	}
	if complete > m.maxComplete {
		m.maxComplete = complete
	}

	// ---- Branches: a mispredict stalls the front end until the
	// (possibly load-fed, hence late) branch resolves plus the
	// redirect cost — the paper's load-to-branch penalty extension
	// falls out directly, because `complete` already includes the
	// feeding load's cache latency through regReady.
	if isa.IsCondBranch(in.Op) {
		m.stats.CondBranches++
		var miss bool
		if m.custom != nil {
			miss = m.custom.Predict(ev.PC) != ev.Taken
			m.custom.Update(ev.PC, ev.Taken)
		} else {
			miss = m.pred.Observe(ev.PC, ev.Taken)
		}
		if miss {
			m.stats.Mispredicts++
			if f := complete + int64(m.cfg.MispredictPenalty+m.cfg.FrontEndDepth); f > m.cursor {
				m.cursor = f
				m.cursorCnt = 0
			}
		}
	}
	// Taken control flow ends the issue group (the fetch-break the
	// full model charges on taken branches, folded into the cursor).
	// On in-order cores the break overlaps with the serialized issue
	// stalls the cursor already carries — charging it again
	// systematically overestimates branchy in-order runs — so it only
	// applies out of order.
	if ev.Taken && !m.cfg.InOrder && isa.IsBranch(in.Op) && m.cursorCnt > 0 {
		m.cursor++
		m.cursorCnt = 0
	}
}

// Finalize records the functional run's total committed instruction
// count. Under sampling the model only observed part of the stream;
// Stats then reports the exact instruction count and scales cycles
// and event counters by total/observed.
func (m *Model) Finalize(totalInstructions uint64) {
	m.total = totalInstructions
}

// Stats returns the accumulated statistics. After Finalize with a
// total above the observed count, Cycles and the event counters are
// extrapolated by total/observed and Instructions is the exact
// functional count; otherwise the raw observed values are returned.
func (m *Model) Stats() pipeline.Stats {
	s := m.stats
	s.Instructions = m.observed
	s.Cycles = uint64(m.maxComplete)
	if m.cursor > m.maxComplete {
		// A trailing mispredict redirect can leave the front end
		// stalled past the last completion.
		s.Cycles = uint64(m.cursor)
	}
	if m.total > m.observed && m.observed > 0 {
		f := float64(m.total) / float64(m.observed)
		s.Instructions = m.total
		s.Cycles = scaleU(s.Cycles, f)
		s.Loads = scaleU(s.Loads, f)
		s.Stores = scaleU(s.Stores, f)
		s.CondBranches = scaleU(s.CondBranches, f)
		s.Mispredicts = scaleU(s.Mispredicts, f)
		s.L1Hits = scaleU(s.L1Hits, f)
		s.L2Hits = scaleU(s.L2Hits, f)
		s.MemHits = scaleU(s.MemHits, f)
		s.LoadLatencySum = scaleU(s.LoadLatencySum, f)
	}
	return s
}

func scaleU(v uint64, f float64) uint64 {
	return uint64(float64(v)*f + 0.5)
}
