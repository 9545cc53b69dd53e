// Package runner is the shared-artifact analysis engine behind the
// experiment generators. The paper's original apparatus (ATOM)
// instrumented each binary once and derived every analysis from that
// single run; the seed code instead recompiled and re-simulated each
// kernel for every table and figure. A Session restores the
// run-once/analyze-many discipline:
//
//   - a memoizing compile cache keyed by (program, variant, compiler
//     options), so each kernel is compiled once per session;
//   - a characterization cache keyed by (program, input size), so one
//     functional simulation feeds the instruction mix, load-coverage,
//     cache, branch-predictor, sequence-tracking, and hot-load
//     analyses (they all live in one loadchar.Analysis attached to
//     that single run);
//   - a bounded worker pool (ForEach) that fans independent
//     simulations out across cores with deterministic output ordering
//     — results land in caller-indexed slots, and the reported error
//     is always the lowest-index failure, so a parallel session is
//     byte-identical to a sequential one;
//   - one timing fan-out (EvaluateAll) that groups timing jobs by the
//     stream they time — (program, variant, compiler options, tier) —
//     and runs each group as one functional simulation with every
//     member's model attached.
//
// Timing runs are deliberately not memoized: every call trains fresh
// models. Table 8's redundancy lives in the stream, not the compile:
// platforms sharing a register budget (Alpha and PowerPC) time the
// same committed instructions, so EvaluateAll runs the 48 cells of
// either tier as 36 functional simulations.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/scoreboard"
	"bioperfload/internal/sim"
	"bioperfload/internal/simpoint"
	"bioperfload/internal/store"
)

// CompileKey identifies one compilation artifact. compiler.Options is
// a flat comparable struct, so the key is directly usable in a map.
type CompileKey struct {
	Program     string
	Transformed bool
	Opts        compiler.Options
}

type compileEntry struct {
	once sync.Once
	prog *isa.Program
	err  error
}

// Accuracy selects a characterization tier: exact (every event
// analyzed) or sampled (SimPoint-style phase analysis: representative
// intervals analyzed, counts extrapolated by cluster weight).
type Accuracy string

const (
	// AccuracyExact is the default full-stream characterization.
	AccuracyExact Accuracy = "exact"
	// AccuracySampled characterizes representative intervals only and
	// extrapolates; it degrades to exact when the trace is too small.
	AccuracySampled Accuracy = "sampled"
)

// ParseAccuracy maps user-facing accuracy spellings to the tier; the
// empty string selects exact.
func ParseAccuracy(s string) (Accuracy, error) {
	switch s {
	case "", "exact":
		return AccuracyExact, nil
	case "sampled":
		return AccuracySampled, nil
	default:
		return "", fmt.Errorf("unknown accuracy %q (want exact or sampled)", s)
	}
}

type charKey struct {
	program string
	size    bio.Size
	acc     Accuracy
}

type charEntry struct {
	once sync.Once
	prof *Profile
	err  error
}

// Profile is one program's shared characterization run: the dynamic
// instruction count and the single-pass analysis every table and
// figure reads from. Source records which serve tier produced it
// ("cold", "snapshot", "replay", "peer", or "sampled").
type Profile struct {
	Name         string
	Instructions uint64
	Analysis     *loadchar.Analysis
	Source       string
}

// Stats reports a session's cache effectiveness, for tests, the
// experiments summary line and bioperfd's /metrics.
type Stats struct {
	Compiles              uint64 `json:"compiles"`                // compile-cache misses (actual compilations)
	CompileHits           uint64 `json:"compile_hits"`            // compile-cache hits
	Runs                  uint64 `json:"runs"`                    // sim.Machine.Run invocations
	CharacterizeHits      uint64 `json:"characterize_hits"`       // characterization-cache hits
	ReplayRuns            uint64 `json:"replay_runs"`             // characterizations served by trace replay
	ReplaySerialFallbacks uint64 `json:"replay_serial_fallbacks"` // replays that requested parallelism but ran serial
	ProfileHits           uint64 `json:"profile_hits"`            // characterizations served from persisted snapshots
	PeerHits              uint64 `json:"peer_hits"`               // characterizations served from a fleet peer's artifact
	ColdChars             uint64 `json:"cold_chars"`              // characterizations that had to simulate cold
	SampledChars          uint64 `json:"sampled_chars"`           // sampled characterizations computed from a phase plan
	SampledHits           uint64 `json:"sampled_hits"`            // sampled characterizations served from persisted snapshots
	SampledDegrades       uint64 `json:"sampled_degrades"`        // sampled requests degraded to the exact path
}

// RemoteTier is the fleet hook: when a Session misses its local
// snapshot and trace tiers, it asks the remote tier for the artifact
// before paying for a cold simulation, and pushes freshly computed
// snapshots back out. internal/cluster implements it; the interface
// lives here so the runner stays ignorant of HTTP and ring layout.
type RemoteTier interface {
	// Fetch returns the verified artifact stored under key on some
	// peer, or ok=false. verify is called on candidate bytes before
	// they are accepted (a peer serving transfer-consistent but
	// semantically wrong content must be skipped, not trusted).
	Fetch(ctx context.Context, key string, verify func([]byte) error) (data []byte, ok bool)
	// Replicate pushes a freshly persisted artifact toward the nodes
	// responsible for key. It must not block on peers.
	Replicate(key string, data []byte)
}

// Session owns the caches and the worker pool. Create with
// NewSession; a Session is safe for concurrent use.
type Session struct {
	jobs   int
	store  *store.Store
	remote RemoteTier

	mu       sync.Mutex
	compiled map[CompileKey]*compileEntry
	chars    map[charKey]*charEntry

	simpointCfg simpoint.Config

	compiles        atomic.Uint64
	compileHits     atomic.Uint64
	runs            atomic.Uint64
	charHits        atomic.Uint64
	replayRuns      atomic.Uint64
	replaySerial    atomic.Uint64
	profileHits     atomic.Uint64
	peerHits        atomic.Uint64
	coldChars       atomic.Uint64
	sampledChars    atomic.Uint64
	sampledHits     atomic.Uint64
	sampledDegrades atomic.Uint64
}

// NewSession creates a session whose worker pool runs up to jobs
// simulations concurrently; jobs <= 0 selects GOMAXPROCS. jobs == 1
// is the fully sequential reference path the golden tests compare
// against.
func NewSession(jobs int) *Session {
	return NewSessionWithStore(jobs, nil)
}

// NewSessionWithStore creates a session backed by a persistent
// artifact store: compiled programs, committed-instruction traces,
// and characterization snapshots are written through to st, and later
// sessions opening the same store serve characterizations from the
// persisted snapshot — falling back to trace replay, then to cold
// simulation, as artifacts are missing or damaged. st may be nil
// (identical to NewSession). The session does not close the store.
func NewSessionWithStore(jobs int, st *store.Store) *Session {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Session{
		jobs:     jobs,
		store:    st,
		compiled: make(map[CompileKey]*compileEntry),
		chars:    make(map[charKey]*charEntry),
	}
}

// Jobs returns the worker-pool width.
func (s *Session) Jobs() int { return s.jobs }

// Store returns the session's artifact store, or nil.
func (s *Session) Store() *store.Store { return s.store }

// SetRemote attaches the fleet tier. It requires a local store (the
// remote tier admits fetched artifacts there) and must be called
// before the session starts serving.
func (s *Session) SetRemote(rt RemoteTier) {
	if s.store == nil {
		panic("runner: SetRemote requires a session with a store")
	}
	s.remote = rt
}

// SetSimPoint overrides the sampling configuration used by
// AccuracySampled characterizations. Must be called before the session
// starts serving; the zero config selects every simpoint default.
// Tests shrink IntervalSize so test-size runs span enough intervals to
// cluster.
func (s *Session) SetSimPoint(cfg simpoint.Config) { s.simpointCfg = cfg }

// SimPoint returns the session's sampling configuration with defaults
// applied.
func (s *Session) SimPoint() simpoint.Config { return s.simpointCfg.WithDefaults() }

// Stats returns the session's cache counters.
func (s *Session) Stats() Stats {
	return Stats{
		Compiles:              s.compiles.Load(),
		CompileHits:           s.compileHits.Load(),
		Runs:                  s.runs.Load(),
		CharacterizeHits:      s.charHits.Load(),
		ReplayRuns:            s.replayRuns.Load(),
		ReplaySerialFallbacks: s.replaySerial.Load(),
		ProfileHits:           s.profileHits.Load(),
		PeerHits:              s.peerHits.Load(),
		ColdChars:             s.coldChars.Load(),
		SampledChars:          s.sampledChars.Load(),
		SampledHits:           s.sampledHits.Load(),
		SampledDegrades:       s.sampledDegrades.Load(),
	}
}

// Compile returns the compiled program for (p, variant, opts),
// compiling at most once per key per session. Concurrent callers of
// the same key block until the one compilation finishes. With a store
// attached, a persisted binary with a matching fingerprint is loaded
// instead of compiling, and fresh compilations are written through.
func (s *Session) Compile(p *bio.Program, transformed bool, opts compiler.Options) (*isa.Program, error) {
	key := CompileKey{Program: p.Name, Transformed: transformed && p.Transformable, Opts: opts}
	s.mu.Lock()
	e, ok := s.compiled[key]
	if !ok {
		e = &compileEntry{}
		s.compiled[key] = e
	}
	s.mu.Unlock()
	miss := false
	e.once.Do(func() {
		miss = true
		var fp string
		if s.store != nil {
			fp = Fingerprint(p, transformed, opts)
			if prog := s.loadCompiled(fp); prog != nil {
				// Force the lazy symbol index while single-threaded;
				// the program is then shared read-only across worker
				// goroutines.
				prog.Symbol("")
				e.prog = prog
				return
			}
		}
		s.compiles.Add(1)
		e.prog, e.err = p.Compile(transformed, opts)
		if e.err == nil {
			e.prog.Symbol("")
			if s.store != nil {
				s.storeCompiled(fp, e.prog)
			}
		}
	})
	if !miss {
		s.compileHits.Add(1)
	}
	return e.prog, e.err
}

// Characterize returns the program's shared characterization profile,
// compiling and functionally simulating at most once per (program,
// size) per session. Every analyzer output (mix, coverage, cache,
// branch, sequences, hot loads) reads from this one run.
//
// The run executes under the context of the caller that triggered it;
// concurrent callers of the same key share that run (and its fate).
// Cancellation and deadline errors are never memoized — the cache
// entry is evicted so a later request simply retries — because a
// caller-imposed timeout says nothing about the next caller's budget.
func (s *Session) Characterize(ctx context.Context, p *bio.Program, sz bio.Size) (*Profile, error) {
	return s.CharacterizeAccuracy(ctx, p, sz, AccuracyExact)
}

// CharacterizeAccuracy is Characterize with an explicit accuracy tier.
// Sampled and exact results are memoized under separate keys: a
// sampled profile is an approximation and must never be served to an
// exact request (or vice versa).
func (s *Session) CharacterizeAccuracy(ctx context.Context, p *bio.Program, sz bio.Size, acc Accuracy) (*Profile, error) {
	key := charKey{program: p.Name, size: sz, acc: acc}
	s.mu.Lock()
	e, ok := s.chars[key]
	if !ok {
		e = &charEntry{}
		s.chars[key] = e
	}
	s.mu.Unlock()
	miss := false
	e.once.Do(func() {
		miss = true
		if acc == AccuracySampled {
			e.prof, e.err = s.characterizeSampled(ctx, p, sz)
		} else {
			e.prof, e.err = s.characterize(ctx, p, sz)
		}
	})
	if !miss {
		s.charHits.Add(1)
	}
	if e.err != nil && isContextErr(e.err) {
		s.mu.Lock()
		if s.chars[key] == e {
			delete(s.chars, key)
		}
		s.mu.Unlock()
	}
	return e.prof, e.err
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *Session) characterize(ctx context.Context, p *bio.Program, sz bio.Size) (*Profile, error) {
	var fp string
	if s.store != nil {
		fp = Fingerprint(p, false, compiler.Default())
		if prof, err, done := s.storeCharacterize(ctx, p, sz, fp); done {
			return prof, err
		}
	}
	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		return nil, err
	}
	m, err := sim.New(prog)
	if err != nil {
		return nil, err
	}
	if err := p.Bind(m, sz); err != nil {
		return nil, fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	a := loadchar.New(prog)
	rec := s.startRecording(m, p, sz, fp, prog, a)
	if rec == nil {
		m.AddBatchObserver(a)
	}
	s.runs.Add(1)
	s.coldChars.Add(1)
	res, err := m.RunContext(ctx)
	if err == nil {
		err = rec.flush()
	}
	if err == nil {
		err = a.Err()
	}
	if err != nil {
		rec.abort()
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := p.Validate(res, sz); err != nil {
		rec.abort()
		return nil, err
	}
	// The trace is committed only for a validated, complete run, and
	// only when the writer saw exactly the committed-instruction count.
	rec.commit(res.Instructions)
	prof := &Profile{Name: p.Name, Instructions: res.Instructions, Analysis: a, Source: "cold"}
	if s.store != nil {
		s.storeProfile(prof, profKey(fp, sz), fp)
	}
	return prof, nil
}

// CharacterizeAll characterizes the nine BioPerf programs on the
// worker pool, in the paper's Table 1 order.
func (s *Session) CharacterizeAll(ctx context.Context, sz bio.Size) ([]*Profile, error) {
	progs := bio.All()
	out := make([]*Profile, len(progs))
	err := s.ForEach(ctx, len(progs), func(i int) error {
		p, err := s.Characterize(ctx, progs[i], sz)
		out[i] = p
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Evaluate runs one program (original or transformed) on a platform's
// timing model, compiling with that platform's register budget via
// the compile cache, and returns the cycle-level statistics. It is a
// one-job EvaluateAll.
func (s *Session) Evaluate(ctx context.Context, p *bio.Program, plat platform.Platform, sz bio.Size, transformed bool) (pipeline.Stats, error) {
	sts, err := s.EvaluateAll(ctx, []TimingJob{{Program: p, Config: plat.Pipeline, Opts: plat.EvalOptions(), Transformed: transformed}}, sz)
	if err != nil {
		return pipeline.Stats{}, err
	}
	return sts[0], nil
}

// TimingJob is one timing measurement: a program variant compiled
// with Opts and timed on the machine Config describes. Config.Fidelity
// selects the tier: the pipeline model over the whole stream, or the
// same model over 1/32 sampled windows.
type TimingJob struct {
	Program     *bio.Program
	Config      pipeline.Config
	Opts        compiler.Options
	Transformed bool
}

// EvaluateAll is the session's one timing fan-out. Jobs that time the
// same stream form a group, and each group is ONE functional
// simulation with every member's model attached, so k machine configs
// sharing a compiled program cost one run plus k model updates. Groups
// run on the worker pool in first-appearance order; the stats come
// back in job order. Timing runs are never memoized: every call trains
// fresh models.
func (s *Session) EvaluateAll(ctx context.Context, jobs []TimingJob, sz bio.Size) ([]pipeline.Stats, error) {
	groups := groupJobs(jobs)
	out := make([]pipeline.Stats, len(jobs))
	err := s.ForEach(ctx, len(groups), func(g int) error {
		return s.evaluateGroup(ctx, jobs, groups[g], sz, out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FunctionalRuns returns how many functional simulations EvaluateAll
// spends on jobs: the number of distinct streams they time.
func FunctionalRuns(jobs []TimingJob) int { return len(groupJobs(jobs)) }

// groupJobs buckets job indices by the committed-instruction stream
// they time, in first-appearance order. A stream is the compiled
// program, as Compile keys it, plus the tier, which decides whether the
// stream is sampled. pipeline.Config is not part of it, and is not
// comparable: it holds a Predictor func.
func groupJobs(jobs []TimingJob) [][]int {
	type streamKey struct {
		compile  CompileKey
		fidelity pipeline.Fidelity
	}
	var groups [][]int
	index := make(map[streamKey]int)
	for i, j := range jobs {
		k := streamKey{
			compile:  CompileKey{Program: j.Program.Name, Transformed: j.Transformed && j.Program.Transformable, Opts: j.Opts},
			fidelity: j.Config.Fidelity,
		}
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// timingModel is the contract both timing tiers satisfy: slab-batched
// event delivery plus end-of-run statistics.
type timingModel interface {
	sim.BatchObserver
	Stats() pipeline.Stats
}

// evaluateGroup runs the jobs at idx — which share one stream — over a
// single functional simulation and writes each job's stats to its
// slot in out. On the fast tier the machine samples the stream
// (scoreboard.SampleObserve of every SamplePeriod instructions) and
// each sampled model extrapolates via Finalize; on the full tier every
// model observes the complete stream.
func (s *Session) evaluateGroup(ctx context.Context, jobs []TimingJob, idx []int, sz bio.Size, out []pipeline.Stats) error {
	first := jobs[idx[0]]
	p := first.Program
	prog, err := s.Compile(p, first.Transformed, first.Opts)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name, err)
	}
	m, err := sim.New(prog)
	if err != nil {
		return err
	}
	if err := p.Bind(m, sz); err != nil {
		return fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	fast := first.Config.Fidelity == pipeline.FidelityFast
	models := make([]timingModel, len(idx))
	for x, i := range idx {
		if fast {
			models[x] = scoreboard.NewModel(jobs[i].Config)
		} else {
			models[x] = pipeline.NewModel(jobs[i].Config)
		}
		m.AddBatchObserver(models[x])
	}
	if fast {
		m.SetSampling(scoreboard.SampleObserve, scoreboard.SamplePeriod)
	}
	s.runs.Add(1)
	res, err := m.RunContext(ctx)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := p.Validate(res, sz); err != nil {
		return err
	}
	for x, i := range idx {
		if sb, ok := models[x].(*scoreboard.Model); ok {
			sb.Finalize(res.Instructions)
		}
		out[i] = models[x].Stats()
	}
	return nil
}

// ForEach invokes fn(i) for every i in [0, n), fanning the calls out
// across the session's worker pool. fn must write its result into a
// caller-owned slot indexed by i, which makes output ordering
// deterministic regardless of goroutine scheduling. When any calls
// fail, the lowest-index error is returned — the same error a
// sequential loop would surface first — so parallel and sequential
// sessions report identically.
//
// Once ctx is canceled no further indices are dispatched; calls
// already in flight finish on their own (fn is expected to observe
// the same ctx). If every dispatched call succeeded but the sweep was
// cut short, ctx.Err() is returned.
func (s *Session) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	return forEach(ctx, s.jobs, n, fn)
}

// forEach is the package's one worker pool: ForEach on up to workers
// goroutines, for paths that fan out without a session.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
