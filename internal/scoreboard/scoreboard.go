// Package scoreboard is the fast timing tier's sampling wrapper: the
// full pipeline.Model run over the deterministic windows
// sim.SetSampling delivers, with Finalize extrapolating the observed
// part to the whole run. There is one timing model; the fast tier
// differs from the full tier only in what fraction of the committed
// stream that model sees (SampleObserve of every SamplePeriod
// instructions, 1/32), which is where both its speed and its error
// come from.
//
// Absolute cycle counts are approximate under sampling; the
// transformed/original speedup ratios the paper's Table 8 and Figure 9
// report are validated against the full tier per program by
// internal/scoreboard/validate, with tolerances recorded there and in
// DESIGN.md §10.
package scoreboard

import "bioperfload/internal/pipeline"

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

// Model is a pipeline.Model that knows it may see only part of the
// stream. Create with NewModel, attach via
// sim.Machine.AddBatchObserver, and after the run call Finalize with
// the functional instruction count before reading Stats.
type Model struct {
	*pipeline.Model
	total uint64 // set by Finalize; 0 until then
}

// NewModel builds the sampled model for cfg; cfg means exactly what it
// means to pipeline.NewModel.
func NewModel(cfg pipeline.Config) *Model {
	return &Model{Model: pipeline.NewModel(cfg)}
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
// functional count; otherwise the pipeline model's own Stats are
// returned unchanged.
func (m *Model) Stats() pipeline.Stats {
	s := m.Model.Stats()
	observed := s.Instructions
	if m.total > observed && observed > 0 {
		f := float64(m.total) / float64(observed)
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
