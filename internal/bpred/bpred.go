// Package bpred implements the branch predictors the paper uses to
// measure branch behaviour. The measurement predictor is "a hybrid
// branch predictor [McFarling-style] with an entry for each static
// branch (i.e., there is no aliasing)" (Section 2.2): a per-branch
// local history predictor and a global gshare predictor arbitrated by
// a per-branch choice counter. Bimodal and static predictors are
// provided as baselines for ablation studies.
package bpred

// Predictor predicts conditional branch outcomes and learns from the
// resolved direction. PC is the static instruction index of the
// branch (unique per static branch, which realizes the paper's
// no-aliasing requirement for per-branch state).
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc int32) bool
	// Update trains the predictor with the actual direction.
	Update(pc int32, taken bool)
}

// counter is a saturating 2-bit counter: 0,1 predict not-taken; 2,3
// predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) inc() counter {
	if c < 3 {
		return c + 1
	}
	return c
}

func (c counter) dec() counter {
	if c > 0 {
		return c - 1
	}
	return c
}

func (c counter) train(taken bool) counter {
	if taken {
		return c.inc()
	}
	return c.dec()
}

// Static predicts a fixed direction (ablation baseline).
type Static struct{ Taken bool }

// Predict implements Predictor.
func (s *Static) Predict(int32) bool { return s.Taken }

// Update implements Predictor.
func (s *Static) Update(int32, bool) {}

// Bimodal keeps one 2-bit counter per static branch.
type Bimodal struct {
	table map[int32]counter
}

// NewBimodal returns an empty bimodal predictor.
func NewBimodal() *Bimodal { return &Bimodal{table: make(map[int32]counter)} }

// Predict implements Predictor. Unseen branches predict taken,
// matching the usual backward-taken loop assumption well enough for a
// cold counter initialized weakly taken.
func (b *Bimodal) Predict(pc int32) bool {
	c, ok := b.table[pc]
	if !ok {
		return true
	}
	return c.taken()
}

// Update implements Predictor.
func (b *Bimodal) Update(pc int32, taken bool) {
	c, ok := b.table[pc]
	if !ok {
		c = 2 // weakly taken
	}
	b.table[pc] = c.train(taken)
}

// Hybrid is the paper's measurement predictor: per-static-branch
// local predictor (local history indexing a private pattern table),
// a shared gshare global predictor, and a per-branch choice counter.
type Hybrid struct {
	localBits  uint // local history length
	globalBits uint // global history length / gshare table log2 size

	locals map[int32]*localEntry
	ghist  uint64
	gshare []counter
	gmask  uint64
}

type localEntry struct {
	hist    uint64
	mask    uint64
	pattern []counter
	choice  counter // 0,1 favor global; 2,3 favor local
}

// HybridConfig sizes the hybrid predictor.
type HybridConfig struct {
	LocalHistoryBits  uint // per-branch pattern table has 2^bits counters
	GlobalHistoryBits uint // gshare table has 2^bits counters
}

// DefaultHybridConfig mirrors a 21264-like tournament predictor
// (10-bit local histories, 12-bit global history).
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{LocalHistoryBits: 10, GlobalHistoryBits: 12}
}

// NewHybrid builds the hybrid predictor.
func NewHybrid(cfg HybridConfig) *Hybrid {
	if cfg.LocalHistoryBits == 0 || cfg.LocalHistoryBits > 16 {
		cfg.LocalHistoryBits = 10
	}
	if cfg.GlobalHistoryBits == 0 || cfg.GlobalHistoryBits > 24 {
		cfg.GlobalHistoryBits = 12
	}
	return &Hybrid{
		localBits:  cfg.LocalHistoryBits,
		globalBits: cfg.GlobalHistoryBits,
		locals:     make(map[int32]*localEntry),
		gshare:     make([]counter, 1<<cfg.GlobalHistoryBits),
		gmask:      (1 << cfg.GlobalHistoryBits) - 1,
	}
}

// NewPaperHybrid returns the predictor configuration used for all the
// paper-reproduction measurements.
func NewPaperHybrid() *Hybrid { return NewHybrid(DefaultHybridConfig()) }

func (h *Hybrid) entry(pc int32) *localEntry {
	e := h.locals[pc]
	if e == nil {
		e = &localEntry{
			mask:    (1 << h.localBits) - 1,
			pattern: make([]counter, 1<<h.localBits),
			choice:  2, // weakly favor local
		}
		for i := range e.pattern {
			e.pattern[i] = 2 // weakly taken
		}
		h.locals[pc] = e
	}
	return e
}

func (h *Hybrid) gidx(pc int32) uint64 {
	return (uint64(uint32(pc)) ^ h.ghist) & h.gmask
}

// Predict implements Predictor.
func (h *Hybrid) Predict(pc int32) bool {
	e := h.entry(pc)
	localPred := e.pattern[e.hist&e.mask].taken()
	globalPred := h.gshare[h.gidx(pc)].taken()
	if e.choice.taken() {
		return localPred
	}
	return globalPred
}

// Update implements Predictor.
func (h *Hybrid) Update(pc int32, taken bool) {
	e := h.entry(pc)
	li := e.hist & e.mask
	gi := h.gidx(pc)
	localPred := e.pattern[li].taken()
	globalPred := h.gshare[gi].taken()

	// Train the choice counter toward whichever component was right
	// when they disagree.
	if localPred != globalPred {
		e.choice = e.choice.train(localPred == taken)
	}
	e.pattern[li] = e.pattern[li].train(taken)
	h.gshare[gi] = h.gshare[gi].train(taken)

	e.hist = (e.hist << 1) | b2u(taken)
	h.ghist = (h.ghist << 1) | b2u(taken)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BranchStats tracks per-static-branch prediction accuracy.
type BranchStats struct {
	Executed    uint64
	Mispredicts uint64
	Taken       uint64
}

// MispredictRate returns mispredictions over executions.
func (s BranchStats) MispredictRate() float64 {
	if s.Executed == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Executed)
}

// HardToPredict reports whether the branch mispredicted at least
// threshold of the time (the paper's Table 4(b) uses 5%) over at least
// minExec executions (to suppress cold noise).
func (s BranchStats) HardToPredict(threshold float64, minExec uint64) bool {
	return s.Executed >= minExec && s.MispredictRate() >= threshold
}

// Tracker wraps a predictor and records per-branch statistics: feed
// it each committed conditional branch, then query per-branch or
// aggregate misprediction rates. It is the map-based reference the
// Table 4 analyses' DenseShard and their per-event test oracle are
// checked against.
type Tracker struct {
	pred  Predictor
	perPC map[int32]*BranchStats
	total BranchStats
}

// NewTracker wraps pred.
func NewTracker(pred Predictor) *Tracker {
	return &Tracker{pred: pred, perPC: make(map[int32]*BranchStats)}
}

// Observe predicts, compares with the actual direction, trains, and
// records statistics. It returns true when the branch was mispredicted.
func (t *Tracker) Observe(pc int32, taken bool) bool {
	pred := t.pred.Predict(pc)
	t.pred.Update(pc, taken)
	s := t.perPC[pc]
	if s == nil {
		s = &BranchStats{}
		t.perPC[pc] = s
	}
	s.Executed++
	t.total.Executed++
	if taken {
		s.Taken++
		t.total.Taken++
	}
	if pred != taken {
		s.Mispredicts++
		t.total.Mispredicts++
		return true
	}
	return false
}

// Stats returns statistics for one static branch.
func (t *Tracker) Stats(pc int32) BranchStats {
	if s := t.perPC[pc]; s != nil {
		return *s
	}
	return BranchStats{}
}

// Total returns aggregate statistics.
func (t *Tracker) Total() BranchStats { return t.total }

// PerBranch returns a copy of the per-branch table.
func (t *Tracker) PerBranch() map[int32]BranchStats {
	out := make(map[int32]BranchStats, len(t.perPC))
	for pc, s := range t.perPC {
		out[pc] = *s
	}
	return out
}
