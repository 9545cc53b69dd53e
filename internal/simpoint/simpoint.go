// Package simpoint is the sampled-characterization subsystem: a
// SimPoint-style phase analysis that makes 100x-scale inputs
// affordable to characterize. The committed instruction stream is cut
// into fixed-size intervals; each interval is summarized by a random
// projection of its per-instruction execution counts to a few
// dimensions (the information of SimPoint's basic-block vector,
// gathered with no block map); the signatures are clustered with
// k-means (deterministic seeding, BIC-style selection of k); and one
// representative interval per cluster is characterized exactly, its
// counts scaled by the cluster population and merged into a full-run
// profile (loadchar.Snapshot arithmetic). The result is a profile
// whose cost is proportional to k intervals plus one cheap decode
// scan, instead of the full run — with the sampled-vs-exact error
// measured at classB, where ground truth is cheap, and bounded by the
// checked-in tolerances_classB.json.
package simpoint

import "fmt"

// Defaults for Config, and the fixed clustering parameters. The
// interval size is a multiple of the trace chunk size (16Ki events), so
// interval edges coincide with chunk edges: representative replay feeds
// whole column chunks and never cuts one. runner.SampledAnalyze
// degrades to exact when a plan's representative edges are not chunk
// edges (an interval size that is not a multiple of the chunk size).
const (
	DefaultIntervalSize = 1 << 18   // events per interval (256Ki)
	DefaultDims         = 16        // random-projection dimensions
	DefaultMaxK         = 16        // k-means upper bound before clamping
	DefaultSeed         = 0x51A9017 // deterministic projection + seeding
	DefaultMinIntervals = 4         // fewer intervals degrade to exact
	DefaultBICFraction  = 0.9       // smallest k within this fraction of the best BIC
	DefaultWarmup       = 1 << 16   // warm-up events replayed before each representative
)

// Config parameterizes the sampling pipeline. The zero value selects
// every default; tests shrink IntervalSize to exercise clustering on
// tiny traces. The projection, seed and k selection are the fixed
// Default* constants.
type Config struct {
	// IntervalSize is the number of committed instructions per
	// interval.
	IntervalSize uint64
	// WarmupEvents is how many events are replayed (and subtracted
	// back out) before each representative interval to warm the cache
	// and predictor state.
	WarmupEvents uint64
}

// WithDefaults returns c with every zero field replaced by its
// default.
func (c Config) WithDefaults() Config {
	if c.IntervalSize == 0 {
		c.IntervalSize = DefaultIntervalSize
	}
	if c.WarmupEvents == 0 {
		c.WarmupEvents = DefaultWarmup
	}
	return c
}

// Fingerprint names everything a sampled profile depends on beyond
// the program fingerprint: a stored sampled snapshot keyed under it is
// only served back to requests with an identical sampling
// configuration.
func (c Config) Fingerprint() string {
	c = c.WithDefaults()
	return fmt.Sprintf("simpoint|iv=%d|warm=%d", c.IntervalSize, c.WarmupEvents)
}

// DegradeError reports that sampling is not applicable to this trace
// or program and the caller should serve the exact characterization
// instead. It is a routing signal, never a failure: every degrade
// carries a human-readable reason that the runner logs.
type DegradeError struct {
	Reason string
}

func (e *DegradeError) Error() string {
	return "simpoint: degrading to exact characterization: " + e.Reason
}
