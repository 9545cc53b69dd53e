package runner

// TimingSchema exposes timingSchema to the external test package,
// which renders Table 8 through internal/experiments.
const TimingSchema = timingSchema
