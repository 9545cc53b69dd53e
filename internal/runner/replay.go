package runner

import (
	"context"
	"runtime"

	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/trace"
)

// ReplayAnalyze characterizes prog from a chunk-indexed trace through
// the block-characterized replay engine: the trace's column streams
// (PC runs, taken bits, addresses) feed loadchar.AnalyzeRuns, which
// memoizes the order-insensitive passes over (state, run) pairs and
// shards the predictor and cache lanes when workers are available. The
// profile is byte-identical to a live characterization (pinned by
// golden tests).
//
// jobs is a request, not a promise: the worker count is clamped to
// GOMAXPROCS (lanes beyond schedulable CPUs only add handoff cost) and
// collapses to the fused single-lane loop on single-chunk traces. The
// returned Analysis' Exec field records the requested count, the count
// actually used, and the clamp reason, so callers — and the /metrics
// surface — can tell "ran parallel" from "parallel requested, ran
// serial" instead of inferring it from identical results.
func ReplayAnalyze(ctx context.Context, prog *isa.Program, ir *trace.IndexedReader, jobs int) (*loadchar.Analysis, error) {
	n := ir.Chunks()
	effective, reason := clampWorkers(jobs)
	if n < 2 && effective > 1 {
		effective, reason = 1, loadchar.SerialReasonSingleChunk
	}

	// Decode workers are the column source's own pipeline (striped chunk
	// ranges); they scale with the same clamp as the analysis lanes.
	src := ir.Columns(ctx, prog, 0, n, effective)
	defer src.Close()
	a, err := loadchar.AnalyzeRuns(ctx, prog, src, effective)
	if err != nil {
		return nil, err
	}
	a.Exec.RequestedWorkers = jobs
	if reason != "" {
		a.Exec.SerialReason = reason
	}
	return a, nil
}

// clampWorkers turns a requested worker count into the count a replay
// pool runs: at least one, and no more than GOMAXPROCS, since workers
// beyond the schedulable CPUs only add handoff cost. reason is the
// loadchar.SerialReason* constant for the clamp that applied, or empty.
func clampWorkers(jobs int) (int, string) {
	if jobs <= 1 {
		return 1, loadchar.SerialReasonRequested
	}
	if g := runtime.GOMAXPROCS(0); jobs > g {
		return g, loadchar.SerialReasonGOMAXPROCS
	}
	return jobs, ""
}
