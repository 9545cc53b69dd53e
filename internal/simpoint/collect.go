package simpoint

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"bioperfload/internal/isa"
	"bioperfload/internal/trace"
)

// CollectTrace scans a recorded trace and returns its interval phase
// signatures. Unlike exact replay — whose cache, predictor, and
// dependence state chain every event to the previous one — signature
// collection only counts PC runs, so the scan parallelizes perfectly:
// each worker decodes an interval-aligned run of chunks with a private
// collector and the per-worker interval slices concatenate in order.
// Workers share one sign table, built per call. This is where the
// bulk of the sampled path's speedup comes from. jobs is a request:
// the scan runs min(jobs, GOMAXPROCS, intervals) workers.
func CollectTrace(ctx context.Context, prog *isa.Program, ir *trace.IndexedReader, cfg Config, jobs int) ([]Interval, error) {
	cfg = cfg.WithDefaults()
	total := ir.TotalEvents()
	if total == 0 {
		return nil, nil
	}
	iv := cfg.IntervalSize
	m := int((total + iv - 1) / iv)
	jobs = collectWorkers(jobs, m)

	signs := newSignTable(len(prog.Insts))
	type result struct {
		ivs []Interval
		err error
	}
	results := make([]result, jobs)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		// Even split of interval indices; the last worker takes the
		// partial tail.
		ivLo := m * w / jobs
		ivHi := m * (w + 1) / jobs
		start := uint64(ivLo) * iv
		end := uint64(ivHi) * iv
		if end > total {
			end = total
		}
		wg.Add(1)
		go func(w int, start, end uint64) {
			defer wg.Done()
			results[w].ivs, results[w].err = scanRange(ctx, prog, signs, ir, cfg, start, end)
		}(w, start, end)
	}
	wg.Wait()

	var out []Interval
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.ivs...)
	}
	if len(out) != m {
		return nil, fmt.Errorf("simpoint: collected %d intervals, expected %d", len(out), m)
	}
	return out, nil
}

// collectWorkers bounds a requested scan width by the schedulable CPUs
// and by the m intervals there are to split.
func collectWorkers(jobs, m int) int {
	return max(1, min(jobs, runtime.GOMAXPROCS(0), m))
}

// scanRange scans the chunks covering [start, end) as PC runs and
// collects its intervals. start must lie on an interval edge; end is
// either an edge or the stream end. The PC-run scan decodes only the
// program-counter column — no event slabs, no target or address
// varints — and the collector projects each run token in one
// DefaultDims-wide subtraction, however long the run and however many
// times it repeats.
func scanRange(ctx context.Context, prog *isa.Program, signs signTable, ir *trace.IndexedReader, cfg Config, start, end uint64) ([]Interval, error) {
	n := ir.Chunks()
	// Greatest chunk starting at or before start, then the first chunk
	// starting at or past end; together they cover [start, end).
	lo := sort.Search(n, func(i int) bool { return ir.Base(i) > start }) - 1
	if lo < 0 {
		lo = 0
	}
	hi := sort.Search(n, func(i int) bool { return ir.Base(i) >= end })

	col := newCollectorAt(signs, cfg, start)
	// Chunk lo may begin before start and chunk hi-1 may extend past
	// end (interval edges need not align with chunk edges), so clip the
	// token stream: skip events before start, stop counting at end.
	// Tokens carry whole repeat counts, so the clipping
	// drops or truncates whole repetitions where it can and splits at
	// most one repetition at each edge.
	skip := start - ir.Base(lo)
	limit := end - start
	err := ir.ScanRunTokens(ctx, prog, lo, hi, func(pc, n int32, rep int64) {
		span := uint64(n)
		if skip > 0 {
			if drop := int64(skip / span); drop >= rep {
				skip -= span * uint64(rep)
				return
			} else if drop > 0 {
				rep -= drop
				skip -= uint64(drop) * span
			}
			if skip > 0 {
				// Leading repetition split by the range start.
				head, hn := pc+int32(skip), n-int32(skip)
				skip = 0
				rep--
				take := uint64(hn)
				if take > limit {
					take = limit
				}
				if take > 0 {
					col.observe(head, int32(take), 1)
					limit -= take
				}
			}
		}
		if limit == 0 || rep == 0 {
			return
		}
		if whole := int64(limit / span); whole < rep {
			if whole > 0 {
				col.observe(pc, n, whole)
				limit -= uint64(whole) * span
			}
			if limit > 0 {
				// Trailing repetition split by the range end.
				col.observe(pc, int32(limit), 1)
				limit = 0
			}
			return
		}
		col.observe(pc, n, rep)
		limit -= uint64(rep) * span
	})
	if err != nil {
		return nil, err
	}
	if limit != 0 {
		return nil, fmt.Errorf("simpoint: scan [%d,%d) ended %d events short", start, end, limit)
	}
	return col.finish(), nil
}
