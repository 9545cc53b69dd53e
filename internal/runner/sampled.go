package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"sort"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/simpoint"
	"bioperfload/internal/trace"
)

// sampledProfKey extends the exact profile key with the sampling
// tier and the full sampling configuration: a sampled snapshot is an
// approximation and is only interchangeable with requests sharing
// every knob that shaped it.
func sampledProfKey(fp string, sz bio.Size, cfg simpoint.Config) string {
	return profKey(fp, sz) + "|sampled|" + cfg.Fingerprint()
}

// characterizeSampled is the AccuracySampled serve path: snapshot tier
// first, then phase analysis over the recorded trace (recording one
// cold if the store has none), degrading to the exact path whenever
// SampledAnalyze reports a *simpoint.DegradeError.
func (s *Session) characterizeSampled(ctx context.Context, p *bio.Program, sz bio.Size) (*Profile, error) {
	cfg := s.SimPoint()
	degrade := func(reason string) (*Profile, error) {
		s.sampledDegrades.Add(1)
		log.Printf("runner: %s/%s: sampled characterization degraded to exact: %s", p.Name, sz, reason)
		return s.Characterize(ctx, p, sz)
	}

	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		return nil, err
	}
	fp := Fingerprint(p, false, compiler.Default())
	var key string
	if s.store != nil {
		key = sampledProfKey(fp, sz, cfg)
		var prof *Profile
		if s.loadLocal(key, restoreProfile(p, prog, key, "sampled", &prof)) {
			s.sampledHits.Add(1)
			return prof, nil
		}
	}

	ir, cleanup, err := s.sampledTrace(ctx, p, sz, fp, prog)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	a, _, err := SampledAnalyze(ctx, prog, ir, cfg, s.jobs)
	var de *simpoint.DegradeError
	if errors.As(err, &de) {
		return degrade(de.Reason)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	prof := &Profile{Name: p.Name, Instructions: ir.TotalEvents(), Analysis: a, Source: "sampled"}
	s.sampledChars.Add(1)
	if s.store != nil {
		s.storeProfile(key, prof)
	}
	return prof, nil
}

// SampledAnalyze runs the whole sampled pipeline over an indexed
// trace: interval collection, clustering, representative replay with
// warmup, and weighted extrapolation into one analysis. It is the
// engine under the session's sampled tier and the bench/ warm workload.
// A *simpoint.DegradeError means the trace is too small to sample, or
// a representative interval's edges are not trace chunk edges.
// The representative replays fan out perfectly — each worker owns one
// live analysis for the whole call and Resets it between intervals —
// so one pool width bounds both the collection scan and the replays:
// jobs clamped to GOMAXPROCS, as in ReplayAnalyze, and each stage
// further to its work. The returned Analysis' Exec records the
// request, that width and the clamp reason.
func SampledAnalyze(ctx context.Context, prog *isa.Program, ir *trace.IndexedReader, cfg simpoint.Config, jobs int) (*loadchar.Analysis, *simpoint.Plan, error) {
	workers, reason := clampWorkers(jobs)
	plan, err := samplePlan(ctx, prog, ir, cfg, workers)
	if err != nil {
		return nil, nil, err
	}
	deltas := make([]*loadchar.Snapshot, len(plan.Clusters))
	// free holds the analyses of replays that have finished. forEach
	// runs at most workers replays at once, so it never holds more, and
	// a replay builds an analysis only when none is free.
	free := make(chan *loadchar.Analysis, workers)
	err = forEach(ctx, workers, len(plan.Clusters), func(i int) error {
		var a *loadchar.Analysis
		select {
		case a = <-free:
			a.Reset()
		default:
			a = loadchar.New(prog)
		}
		defer func() { free <- a }()
		c := plan.Clusters[i]
		snap, err := replayInterval(ctx, prog, a, ir, c.Start, c.End, plan.Config.WarmupEvents)
		if err != nil {
			return fmt.Errorf("replay interval [%d,%d): %w", c.Start, c.End, err)
		}
		snap.Scale(c.Weight)
		deltas[i] = snap
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	merged := deltas[0]
	for _, d := range deltas[1:] {
		if err := merged.Merge(d); err != nil {
			return nil, nil, fmt.Errorf("merge cluster snapshots: %w", err)
		}
	}
	a, err := loadchar.FromSnapshot(prog, merged)
	if err != nil {
		return nil, nil, fmt.Errorf("restore sampled snapshot: %w", err)
	}
	a.Exec = loadchar.Execution{RequestedWorkers: jobs, Workers: workers, SerialReason: reason}
	return a, plan, nil
}

// samplePlan is the plan the sampled tier replays: ir's intervals
// collected on workers, clustered, and checked to have every
// representative's edges on trace chunk edges. A
// *simpoint.DegradeError means the trace is too small to sample or an
// edge falls inside a chunk.
func samplePlan(ctx context.Context, prog *isa.Program, ir *trace.IndexedReader, cfg simpoint.Config, workers int) (*simpoint.Plan, error) {
	intervals, err := simpoint.CollectTrace(ctx, prog, ir, cfg, workers)
	if err != nil {
		return nil, fmt.Errorf("collect intervals: %w", err)
	}
	plan, err := simpoint.BuildPlan(intervals, cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range plan.Clusters {
		if !chunkEdge(ir, c.Start) || !chunkEdge(ir, c.End) {
			return nil, &simpoint.DegradeError{Reason: fmt.Sprintf(
				"interval [%d,%d) does not fall on trace chunk edges", c.Start, c.End)}
		}
	}
	return plan, nil
}

// replayInterval characterizes exactly the events in [start, end) with
// warmed microarchitectural state: a, a new or freshly Reset live
// analysis of prog, replays the trace's column chunks from the chunk
// holding start-warm, a snapshot taken as the chunk based at start
// arrives is turned in place into the counts observed after it
// (DeltaSince), and that difference is the interval's exact counts
// under the warmed cache and predictor: one snapshot copy per
// interval. Both
// prefixes are deterministic, so the subtraction is exact, not
// approximate. start and end must be chunk edges (SampledAnalyze
// checks them), so no chunk is ever cut.
func replayInterval(ctx context.Context, prog *isa.Program, a *loadchar.Analysis, ir *trace.IndexedReader, start, end, warm uint64) (*loadchar.Snapshot, error) {
	warmStart := uint64(0)
	if start > warm {
		warmStart = start - warm
	}
	n := ir.Chunks()
	lo := sort.Search(n, func(i int) bool { return ir.Base(i) > warmStart }) - 1
	hi := sort.Search(n, func(i int) bool { return ir.Base(i) >= end })

	var pre *loadchar.Snapshot
	src := ir.Columns(ctx, prog, lo, hi, 1)
	defer src.Close()
	for {
		ch, release, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if ch.Base == start {
			pre = a.Snapshot()
		}
		a.ObserveChunk(ch)
		release()
	}
	if pre == nil {
		return nil, fmt.Errorf("interval start %d is not a chunk base", start)
	}
	if err := a.DeltaSince(pre); err != nil {
		return nil, err
	}
	return pre, nil
}

// chunkEdge reports whether seq is a chunk base of ir or its end: the
// only places an interval may begin or end, since replay never cuts a
// chunk.
func chunkEdge(ir *trace.IndexedReader, seq uint64) bool {
	n := ir.Chunks()
	i := sort.Search(n, func(i int) bool { return ir.Base(i) >= seq })
	return seq == ir.TotalEvents() || (i < n && ir.Base(i) == seq)
}

// sampledTrace opens an indexed reader over the trace for (p, sz),
// recording one if the store holds none. A trace the store takes is
// reused by every later request, exact or sampled. Without a store, or
// when the store refuses the recording at its start or at commit, the
// trace is recorded in memory and lives for the call; a refusal at
// commit costs a second run. A recording run carries no analysis, so it
// is much cheaper than a cold exact characterization.
func (s *Session) sampledTrace(ctx context.Context, p *bio.Program, sz bio.Size, fp string, prog *isa.Program) (*trace.IndexedReader, func(), error) {
	if s.store != nil {
		if ir, cleanup, ok := s.openTrace(p, sz, fp); ok {
			return ir, cleanup, nil
		}
		if rec := s.storeRecorder(p, sz, fp, prog); rec != nil {
			n, err := s.record(ctx, p, sz, prog, rec)
			if err != nil {
				return nil, nil, err
			}
			if rec.commit(n) == nil {
				if ir, cleanup, ok := s.openTrace(p, sz, fp); ok {
					return ir, cleanup, nil
				}
			}
		}
	}
	data, _, err := s.recordInMemory(ctx, p, sz, fp, prog)
	if err != nil {
		return nil, nil, err
	}
	ir, err := trace.NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: index in-memory trace: %w", p.Name, err)
	}
	return ir, func() {}, nil
}

// recordInMemory records p's trace at sz in memory and returns its
// bytes and the run's committed-instruction count.
func (s *Session) recordInMemory(ctx context.Context, p *bio.Program, sz bio.Size, fp string, prog *isa.Program) ([]byte, uint64, error) {
	rec := newRecorder(p, sz, fp, prog, nil)
	n, err := s.record(ctx, p, sz, prog, rec)
	if err != nil {
		return nil, 0, err
	}
	if err := rec.commit(n); err != nil {
		return nil, 0, err
	}
	return rec.mem.Bytes(), n, nil
}

// RecordTrace records p's committed-instruction trace at sz in memory
// and returns its bytes and the run's committed-instruction count. The
// recorder is the one a store-backed session commits traces through,
// so the bytes equal the trace stored under the same (p, sz); the
// session's store itself is not touched. `bioperf trace` writes them
// to a file.
func (s *Session) RecordTrace(ctx context.Context, p *bio.Program, sz bio.Size) ([]byte, uint64, error) {
	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		return nil, 0, err
	}
	return s.recordInMemory(ctx, p, sz, Fingerprint(p, false, compiler.Default()), prog)
}

// openTrace opens the stored trace as an indexed reader, evicting
// anything unindexable or mismatched. The store hands back the object
// file, so the trace's footer index is read through its ReadAt.
func (s *Session) openTrace(p *bio.Program, sz bio.Size, fp string) (*trace.IndexedReader, func(), bool) {
	key := traceKey(fp, sz)
	f, size, ok := s.store.OpenReader(key)
	if !ok {
		return nil, nil, false
	}
	ir, err := trace.NewIndexedReader(f, size)
	if err != nil {
		f.Close()
		s.store.Delete(key)
		return nil, nil, false
	}
	if m := ir.Meta(); m.Program != p.Name || m.Fingerprint != fp {
		f.Close()
		s.store.Delete(key)
		return nil, nil, false
	}
	return ir, func() { f.Close() }, true
}

// PhasePlan exposes the sampling decision for one (program, size): the
// interval timeline and clustering the sampled path would use. It is
// what `bioperf phases` renders. A *simpoint.DegradeError reports
// what makes the sampled path degrade to exact: a trace too small to
// sample, or a representative edge inside a trace chunk.
func (s *Session) PhasePlan(ctx context.Context, p *bio.Program, sz bio.Size) (*simpoint.Plan, error) {
	cfg := s.SimPoint()
	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		return nil, err
	}
	ir, cleanup, err := s.sampledTrace(ctx, p, sz, Fingerprint(p, false, compiler.Default()), prog)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	plan, err := samplePlan(ctx, prog, ir, cfg, s.jobs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return plan, nil
}
