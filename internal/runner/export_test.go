package runner

// TimingSchema exposes timingSchema to the external test package,
// which renders Table 8 through internal/experiments.
const TimingSchema = timingSchema

// ModelsBuilt returns how many timing models the session's cold
// evaluations have built, for tests of the per-call model free list.
func (s *Session) ModelsBuilt() uint64 { return s.modelsBuilt.Load() }
