// Package service is the characterization-as-a-service layer behind
// cmd/bioperfd: an HTTP JSON API that turns the paper's analyses —
// load characterization, timing evaluation, cross-program/platform
// sweeps — into queued jobs executed over one shared runner.Session.
//
// The paper's apparatus instrumented each binary once and derived
// every analysis from that single run; the Session preserved that
// discipline for batch experiments, and this package extends it to
// serving: every request is admitted to a bounded queue (full queue →
// 429) as a job of its own, executed by a worker pool under its own
// timeout, and answered from the Session's memoized artifacts —
// identical jobs meet at the Session's memo, which runs each compile,
// simulation and timing run once per key, so a cached characterize
// request costs microseconds, not a re-simulation.
// Shutdown drains queued jobs and cancels in-flight simulations
// through the context threaded down to the simulator's commit loop.
//
// Endpoints:
//
//	POST /v1/characterize   {program, size, hot?, timeout_ms?, wait?}
//	POST /v1/evaluate       {program, platform, size, transformed?, fidelity?, timeout_ms?, wait?}
//	POST /v1/sweep          {kind, programs?, platforms?, size, hot?, fidelity?, timeout_ms?, wait?}
//
// Timing requests (evaluate, evaluate sweeps) accept a fidelity tier:
// "fast" (default) runs the pipeline model on 1/32 sampled windows
// and extrapolates, validated on speedup ratios; "full" runs it over
// the whole stream, the exact paper reproduction.
//
//	GET  /v1/jobs/{id}      job status + result
//	GET  /v1/jobs/{id}/events   NDJSON progress stream
//	GET  /healthz           liveness + queue/session snapshot
//	GET  /metrics           Prometheus text format
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/cluster"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
)

// Config configures a Server.
type Config struct {
	// Session is the shared-artifact engine every job runs over. nil
	// creates a fresh GOMAXPROCS-wide session.
	Session *runner.Session
	// QueueDepth bounds the number of admitted-but-not-started jobs;
	// a full queue engages the overload ladder (forward, degrade,
	// then 429). Default 64.
	QueueDepth int
	// ShedReserve is the extra queue capacity only shed-degraded
	// fast-tier jobs may use. Default QueueDepth/4 (min 1).
	ShedReserve int
	// Workers is the job-executor pool width. Jobs themselves fan out
	// further through the Session's simulation pool. Default 4.
	Workers int
	// JobTimeout caps any single job's run time; requests may ask for
	// less via timeout_ms but never more. 0 = no server-wide cap.
	JobTimeout time.Duration
	// Cluster is this node's fleet view (nil = single node). Wiring
	// the same cluster into the Session (SetRemote) is the caller's
	// job; the service only uses it for forwarding, peer health, and
	// metrics.
	Cluster *cluster.Cluster
	// Shed selects the active overload-ladder rungs. The zero value
	// disables both (plain 429 on saturation); cmd/bioperfd parses
	// -shed-policy and defaults to the full ladder.
	Shed ShedPolicy
}

// Server owns the queue, the metrics registry, and the HTTP routes.
// Create with New, serve via Handler, stop with Shutdown.
type Server struct {
	cfg           Config
	session       *runner.Session
	queue         *queue
	metrics       *Metrics
	mux           *http.ServeMux
	started       time.Time
	forwardClient *http.Client
}

// New creates a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Session == nil {
		cfg.Session = runner.NewSession(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ShedReserve <= 0 {
		cfg.ShedReserve = cfg.QueueDepth / 4
		if cfg.ShedReserve < 1 {
			cfg.ShedReserve = 1
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	s := &Server{
		cfg:     cfg,
		session: cfg.Session,
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		started: time.Now(),
		// Forwarded requests may legitimately wait on a cold
		// simulation; the caller's request context, not a client
		// timeout, bounds them.
		forwardClient: &http.Client{},
	}
	s.queue = newQueue(cfg.QueueDepth, cfg.ShedReserve, cfg.Workers, cfg.JobTimeout, s.exec, s.jobDone)

	if s.session.Store() != nil {
		s.registerPeerRoutes()
	}
	s.mux.Handle("POST /v1/characterize", s.instrument("characterize", s.handleCharacterize))
	s.mux.Handle("POST /v1/evaluate", s.instrument("evaluate", s.handleEvaluate))
	s.mux.Handle("POST /v1/sweep", s.instrument("sweep", s.handleSweep))
	s.mux.Handle("GET /v1/jobs/{id}", s.instrument("job", s.handleJob))
	s.mux.Handle("GET /v1/jobs/{id}/events", s.instrument("events", s.handleJobEvents))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	return s
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Session exposes the underlying shared-artifact engine (tests read
// its cache counters to prove deduplication).
func (s *Server) Session() *runner.Session { return s.session }

// Metrics exposes the telemetry registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown stops admitting jobs and drains the queue; when ctx
// expires first, in-flight simulations are canceled. It does not stop
// an enclosing http.Server — callers shut that down alongside.
func (s *Server) Shutdown(ctx context.Context) error { return s.queue.shutdown(ctx) }

func (s *Server) jobDone(j *Job) {
	s.metrics.ObserveJob(j.Kind, j.Status(), j.Duration())
}

// --- request / result documents ---

// CharacterizeRequest is the POST /v1/characterize body.
type CharacterizeRequest struct {
	Program string `json:"program"`
	Size    string `json:"size,omitempty"` // test|classB|classC (default classB)
	Hot     int    `json:"hot,omitempty"`  // hot loads in the report (default 6)
	// Accuracy selects the characterization tier: "exact" (default —
	// the full committed stream) or "sampled" (SimPoint-style phase
	// analysis: cluster fixed-size intervals, simulate one
	// representative per phase, extrapolate by cluster weight).
	Accuracy  string `json:"accuracy,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"` // per-job timeout
	Wait      bool   `json:"wait,omitempty"`       // block until the job finishes
}

// EvaluateRequest is the POST /v1/evaluate body.
type EvaluateRequest struct {
	Program     string `json:"program"`
	Platform    string `json:"platform"`
	Size        string `json:"size,omitempty"`
	Transformed bool   `json:"transformed,omitempty"`
	// Fidelity selects the timing tier: "fast" (default — the
	// pipeline model on 1/32 sampled windows, validated on speedup
	// ratios) or "full" (the same model over the whole stream, the
	// exact paper reproduction; about 6x slower on classB Table 8).
	Fidelity  string `json:"fidelity,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Wait      bool   `json:"wait,omitempty"`
}

// SweepRequest is the POST /v1/sweep body: one job that fans a
// characterize or evaluate request across programs (and platforms)
// on the Session's simulation pool.
type SweepRequest struct {
	Kind      string   `json:"kind"`                // characterize|evaluate
	Programs  []string `json:"programs,omitempty"`  // default: all nine (characterize) / the six transformed (evaluate)
	Platforms []string `json:"platforms,omitempty"` // evaluate only; default: all four
	Size      string   `json:"size,omitempty"`
	Hot       int      `json:"hot,omitempty"`
	Fidelity  string   `json:"fidelity,omitempty"` // evaluate only; fast (default) | full
	Accuracy  string   `json:"accuracy,omitempty"` // characterize only; exact (default) | sampled
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
	Wait      bool     `json:"wait,omitempty"`
}

// SubmitResponse acknowledges an async job submission (202).
type SubmitResponse struct {
	JobID  string `json:"job_id"`
	Status Status `json:"status"`
}

// MixView is the instruction-mix slice of a characterize result.
type MixView struct {
	LoadPct       float64 `json:"load_pct"`
	StorePct      float64 `json:"store_pct"`
	CondBranchPct float64 `json:"cond_branch_pct"`
	OtherPct      float64 `json:"other_pct"`
	FPPct         float64 `json:"fp_pct"`
}

// CacheView is the Table 2 slice of a characterize result (load miss
// rates through the modeled hierarchy).
type CacheView struct {
	L1LocalPct float64 `json:"l1_local_miss_pct"`
	L2LocalPct float64 `json:"l2_local_miss_pct"`
	OverallPct float64 `json:"overall_miss_pct"`
	AMAT       float64 `json:"amat_cycles"`
}

// SequencesView is the Table 4 slice of a characterize result.
type SequencesView struct {
	LoadToBranchPct        float64 `json:"load_to_branch_pct"`
	FedBranchMispredictPct float64 `json:"fed_branch_mispredict_pct"`
	LoadAfterHardBranchPct float64 `json:"load_after_hard_branch_pct"`
	OverallMispredictPct   float64 `json:"overall_mispredict_pct"`
}

// HotLoadView is one Table 5-style row of a characterize result.
type HotLoadView struct {
	PC               int32   `json:"pc"`
	FrequencyPct     float64 `json:"frequency_pct"`
	L1MissPct        float64 `json:"l1_miss_pct"`
	BranchMispredPct float64 `json:"branch_mispredict_pct"`
	Func             string  `json:"func"`
	File             string  `json:"file"`
	Line             int32   `json:"line"`
}

// CharacterizeResult is one program's full characterization payload.
// Report is the canonical profile text, byte-equivalent to
// `cmd/bioperf -profile` (both render through loadchar.RenderProfile).
type CharacterizeResult struct {
	Program       string        `json:"program"`
	Size          string        `json:"size"`
	Accuracy      string        `json:"accuracy,omitempty"` // exact | sampled
	Source        string        `json:"source,omitempty"`   // serving tier (cold|snapshot|replay|peer|sampled)
	Instructions  uint64        `json:"instructions"`
	Mix           MixView       `json:"mix"`
	StaticLoads   int           `json:"static_loads"`
	CoverageTop80 float64       `json:"coverage_top80_pct"`
	Cache         CacheView     `json:"cache"`
	Sequences     SequencesView `json:"sequences"`
	HotLoads      []HotLoadView `json:"hot_loads"`
	Report        string        `json:"report"`
}

// EvaluateResult is one timing run's payload.
type EvaluateResult struct {
	Program       string  `json:"program"`
	Platform      string  `json:"platform"`
	Size          string  `json:"size"`
	Transformed   bool    `json:"transformed"`
	Fidelity      string  `json:"fidelity"`
	Source        string  `json:"source"` // serving tier (memo|store|peer|cold)
	Instructions  uint64  `json:"instructions"`
	Cycles        uint64  `json:"cycles"`
	IPC           float64 `json:"ipc"`
	CondBranches  uint64  `json:"cond_branches"`
	MispredictPct float64 `json:"mispredict_pct"`
	Loads         uint64  `json:"loads"`
	AMAT          float64 `json:"amat_cycles"`
	L1Hits        uint64  `json:"l1_hits"`
	L2Hits        uint64  `json:"l2_hits"`
	MemHits       uint64  `json:"mem_hits"`
}

// SweepEvaluateItem is one program x platform cell of an evaluate
// sweep: both variants plus the speedup, like a Table 8 cell.
type SweepEvaluateItem struct {
	Program     string  `json:"program"`
	Platform    string  `json:"platform"`
	CyclesOrig  uint64  `json:"cycles_original"`
	CyclesTrans uint64  `json:"cycles_transformed"`
	SpeedupPct  float64 `json:"speedup_pct"`
}

// SweepResult is a sweep job's payload.
type SweepResult struct {
	Kind         string               `json:"kind"`
	Size         string               `json:"size"`
	Fidelity     string               `json:"fidelity,omitempty"` // evaluate sweeps only
	Accuracy     string               `json:"accuracy,omitempty"` // characterize sweeps only
	Characterize []CharacterizeResult `json:"characterize,omitempty"`
	Evaluate     []SweepEvaluateItem  `json:"evaluate,omitempty"`
}

// --- resolved job specs ---

type charSpec struct {
	prog *bio.Program
	sz   bio.Size
	hot  int
	acc  runner.Accuracy
}

type evalSpec struct {
	prog        *bio.Program
	plat        platform.Platform
	sz          bio.Size
	transformed bool
	fid         pipeline.Fidelity
}

type sweepSpec struct {
	kind  string
	progs []*bio.Program
	plats []platform.Platform
	sz    bio.Size
	hot   int
	fid   pipeline.Fidelity
	acc   runner.Accuracy
}

// parseSizeDefault resolves a request's size field; an absent field
// selects classB.
func parseSizeDefault(s string) (bio.Size, error) {
	if s == "" {
		return bio.SizeB, nil
	}
	return bio.ParseSize(s)
}

// parseFidelityDefault resolves a request's fidelity field. Unlike
// pipeline.ParseFidelity (where empty means the zero value, full), an
// absent field here selects the FAST tier: the service exists to
// answer interactively, and the sampled tier's validated ratios are
// the product it serves; callers wanting the exact paper numbers opt in
// with "full".
func parseFidelityDefault(s string) (pipeline.Fidelity, error) {
	if s == "" {
		return pipeline.FidelityFast, nil
	}
	return pipeline.ParseFidelity(s)
}

// --- executors ---

func (s *Server) exec(ctx context.Context, j *Job) (any, error) {
	switch spec := j.spec.(type) {
	case charSpec:
		return s.runCharacterize(ctx, j, spec)
	case evalSpec:
		return s.runEvaluate(ctx, j, spec)
	case sweepSpec:
		return s.runSweep(ctx, j, spec)
	}
	return nil, fmt.Errorf("service: unknown job spec %T", j.spec)
}

func (s *Server) runCharacterize(ctx context.Context, j *Job, spec charSpec) (any, error) {
	j.Event("characterizing %s at %s (%s)", spec.prog.Name, spec.sz, spec.acc)
	prof, err := s.session.CharacterizeAccuracy(ctx, spec.prog, spec.sz, spec.acc)
	if err != nil {
		return nil, err
	}
	j.Event("simulated %d instructions", prof.Instructions)
	s.metrics.ObserveServe(canonicalCharKey(spec.prog.Name, spec.sz, spec.acc), prof.Source)
	return characterizeResult(prof, spec.sz, spec.hot, spec.acc), nil
}

// canonicalCharKey names one characterization independent of report
// options (hot count, wait, timeout) — the identity the hot-key
// tracker aggregates serves under.
func canonicalCharKey(prog string, sz bio.Size, acc runner.Accuracy) string {
	return fmt.Sprintf("%s|%s|%s", prog, sz, acc)
}

func characterizeResult(prof *runner.Profile, sz bio.Size, hot int, acc runner.Accuracy) CharacterizeResult {
	a := prof.Analysis
	m := a.Mix()
	c := a.CacheReport()
	sq := a.Sequences()
	res := CharacterizeResult{
		Program:      prof.Name,
		Size:         sz.String(),
		Accuracy:     string(acc),
		Source:       prof.Source,
		Instructions: prof.Instructions,
		Mix: MixView{
			LoadPct: m.LoadPct, StorePct: m.StorePct,
			CondBranchPct: m.BranchPct, OtherPct: m.OtherPct,
			FPPct: 100 * m.FPFraction,
		},
		StaticLoads:   a.StaticLoadCount(),
		CoverageTop80: 100 * a.CoverageAt(80),
		Cache: CacheView{
			L1LocalPct: 100 * c.L1Local, L2LocalPct: 100 * c.L2Local,
			OverallPct: 100 * c.Overall, AMAT: c.AMAT,
		},
		Sequences: SequencesView{
			LoadToBranchPct:        sq.LoadToBranchPct,
			FedBranchMispredictPct: 100 * sq.FedBranchMispredictRate,
			LoadAfterHardBranchPct: sq.LoadAfterHardBranchPct,
			OverallMispredictPct:   100 * sq.OverallMispredictRate,
		},
		Report: loadchar.RenderProfile(prof.Name, sz.String(), a, hot),
	}
	for _, h := range a.HotLoads(hot) {
		res.HotLoads = append(res.HotLoads, HotLoadView{
			PC: h.PC, FrequencyPct: 100 * h.Frequency,
			L1MissPct: 100 * h.L1MissRate, BranchMispredPct: 100 * h.BranchMispred,
			Func: h.Func, File: h.File, Line: h.Line,
		})
	}
	return res
}

func (s *Server) runEvaluate(ctx context.Context, j *Job, spec evalSpec) (any, error) {
	j.Event("timing %s (transformed=%v) on %s at %s, %s tier",
		spec.prog.Name, spec.transformed, spec.plat.Name, spec.sz, spec.fid)
	ts, err := s.session.EvaluateTiers(ctx, []runner.TimingJob{spec.job()}, spec.sz)
	if err != nil {
		return nil, err
	}
	st := ts[0].Stats
	j.Event("answered from the %s tier", ts[0].Source)
	j.Event("retired %d instructions in %d cycles", st.Instructions, st.Cycles)
	return evaluateResult(spec, ts[0]), nil
}

// job is the spec's one timing job.
func (spec evalSpec) job() runner.TimingJob {
	plat := spec.plat.WithFidelity(spec.fid)
	return runner.TimingJob{Program: spec.prog, Config: plat.Pipeline, Opts: plat.EvalOptions(), Transformed: spec.transformed}
}

func evaluateResult(spec evalSpec, t runner.Timing) EvaluateResult {
	st := t.Stats
	return EvaluateResult{
		Program: spec.prog.Name, Platform: spec.plat.Name,
		Size: spec.sz.String(), Transformed: spec.transformed,
		Fidelity: spec.fid.String(), Source: t.Source,
		Instructions: st.Instructions, Cycles: st.Cycles, IPC: st.IPC(),
		CondBranches: st.CondBranches, MispredictPct: 100 * st.MispredictRate(),
		Loads: st.Loads, AMAT: st.AMAT(),
		L1Hits: st.L1Hits, L2Hits: st.L2Hits, MemHits: st.MemHits,
	}
}

func (s *Server) runSweep(ctx context.Context, j *Job, spec sweepSpec) (any, error) {
	out := SweepResult{Kind: spec.kind, Size: spec.sz.String()}
	if spec.kind == "characterize" {
		out.Accuracy = string(spec.acc)
	}
	switch spec.kind {
	case "characterize":
		var completed atomic.Int64
		j.Event("sweeping characterization across %d programs at %s (%s)", len(spec.progs), spec.sz, spec.acc)
		results := make([]CharacterizeResult, len(spec.progs))
		err := s.session.ForEach(ctx, len(spec.progs), func(i int) error {
			prof, err := s.session.CharacterizeAccuracy(ctx, spec.progs[i], spec.sz, spec.acc)
			if err != nil {
				return err
			}
			s.metrics.ObserveServe(canonicalCharKey(prof.Name, spec.sz, spec.acc), prof.Source)
			results[i] = characterizeResult(prof, spec.sz, spec.hot, spec.acc)
			j.Event("%d/%d: %s done", completed.Add(1), len(spec.progs), prof.Name)
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.Characterize = results
	case "evaluate":
		out.Fidelity = spec.fid.String()
		nCells := len(spec.progs) * len(spec.plats)
		j.Event("sweeping %d programs x %d platforms (original and transformed) at %s, %s tier",
			len(spec.progs), len(spec.plats), spec.sz, spec.fid)
		// jobs[2i] is cell i's original, jobs[2i+1] its transformed run.
		jobs := make([]runner.TimingJob, 0, nCells*2)
		for i := 0; i < nCells; i++ {
			plat := spec.plats[i%len(spec.plats)].WithFidelity(spec.fid)
			for _, tr := range []bool{false, true} {
				jobs = append(jobs, runner.TimingJob{
					Program: spec.progs[i/len(spec.plats)], Config: plat.Pipeline,
					Opts: plat.EvalOptions(), Transformed: tr,
				})
			}
		}
		ts, err := s.session.EvaluateTiers(ctx, jobs, spec.sz)
		if err != nil {
			return nil, err
		}
		var cold []runner.TimingJob
		for i, t := range ts {
			if t.Source == "cold" {
				cold = append(cold, jobs[i])
			}
		}
		j.Event("%d cells timed in %d functional runs", nCells, runner.FunctionalRuns(cold))
		for i := 0; i < nCells; i++ {
			orig, trans := ts[2*i].Stats.Cycles, ts[2*i+1].Stats.Cycles
			item := SweepEvaluateItem{
				Program:    spec.progs[i/len(spec.plats)].Name,
				Platform:   spec.plats[i%len(spec.plats)].Name,
				CyclesOrig: orig, CyclesTrans: trans,
			}
			if trans > 0 {
				item.SpeedupPct = 100 * (float64(orig)/float64(trans) - 1)
			}
			out.Evaluate = append(out.Evaluate, item)
		}
	default:
		return nil, fmt.Errorf("service: unknown sweep kind %q", spec.kind)
	}
	return out, nil
}

// --- HTTP handlers ---

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	// One JSON document per request: trailing data is a malformed
	// request (a concatenated second document would silently be
	// ignored otherwise).
	if dec.More() {
		return fmt.Errorf("invalid request body: unexpected data after JSON document")
	}
	return nil
}

// submission carries everything the admission path needs: the job
// itself, the original request document and the ring key that picks
// the primary the overload ladder forwards it to, and an optional
// degrade rewrite producing the fast-tier equivalent of a
// full-fidelity timing job.
type submission struct {
	kind      string
	key       string // ring key: picks the forwarding primary
	spec      any
	timeoutMS int64
	wait      bool
	body      any                // original request document, for forwarding
	degrade   func() any         // fast-tier spec; nil = not degradable
	memo      func() (any, bool) // the result, if already on hand; nil = never
}

// submit runs the shared admission path: enqueue, then either
// acknowledge with 202 or, for wait=true, block until the job finishes
// and return its full document. A saturated queue walks the overload
// ladder (forward to primary, degrade to the fast tier on the shed
// reserve, then 429) instead of rejecting outright.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, sub submission) {
	var timeout time.Duration
	if sub.timeoutMS > 0 {
		timeout = time.Duration(sub.timeoutMS) * time.Millisecond
	}
	job, err := s.queue.submit(sub.kind, sub.spec, timeout, false)
	if errors.Is(err, ErrQueueFull) {
		job, err = s.shed(w, r, sub, timeout)
		if job == nil && err == nil {
			return // forwarded; response already written
		}
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		s.metrics.ObserveShed("reject")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		return
	case errors.Is(err, ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	wait := sub.wait
	if !wait {
		writeJSON(w, http.StatusAccepted, SubmitResponse{JobID: job.ID, Status: job.Status()})
		return
	}
	select {
	case <-job.Done():
		writeJSON(w, http.StatusOK, job.View())
	case <-r.Context().Done():
		// Client went away; the job keeps running and stays
		// fetchable by ID.
	}
}

// shed walks the overload ladder for a submission the queue refused.
// A result already on hand (a memoized evaluation) is answered as a
// finished job before any rung: it costs no queue slot, and degrading
// it would throw away the exact answer. Rung 1 proxies to the key's
// primary (a nil job with nil error means the forward answered and the
// response is already written). Rung 2 re-admits a degraded fast-tier
// variant using the shed reserve, marking the response with
// HeaderDegraded. Falling off the ladder returns ErrQueueFull and the
// caller 429s.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, sub submission, timeout time.Duration) (*Job, error) {
	if sub.memo != nil {
		if res, ok := sub.memo(); ok {
			return s.queue.answered(sub.kind, sub.spec, res), nil
		}
	}
	if sub.body != nil {
		if body, err := json.Marshal(sub.body); err == nil {
			if s.shedForward(w, r, sub.key, body) {
				return nil, nil
			}
		}
	}
	if s.cfg.Shed.Degrade && sub.degrade != nil {
		job, err := s.queue.submit(sub.kind, sub.degrade(), timeout, true)
		if err == nil {
			s.metrics.ObserveShed("degrade")
			w.Header().Set(HeaderDegraded, "fast")
			return job, nil
		}
	}
	return nil, ErrQueueFull
}

func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	var req CharacterizeRequest
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	prog, err := bio.ByName(req.Program)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	sz, err := parseSizeDefault(req.Size)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	acc, err := runner.ParseAccuracy(req.Accuracy)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	hot := req.Hot
	if hot <= 0 {
		hot = 6
	}
	s.metrics.ObserveAccuracy("characterize", string(acc))
	key := fmt.Sprintf("characterize|%s|%s|hot=%d|acc=%s", prog.Name, sz, hot, acc)
	s.submit(w, r, submission{
		kind: "characterize", key: key,
		spec:      charSpec{prog: prog, sz: sz, hot: hot, acc: acc},
		timeoutMS: req.TimeoutMS, wait: req.Wait, body: req,
	})
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	prog, err := bio.ByName(req.Program)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	plat, err := platform.ByName(req.Platform)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	sz, err := parseSizeDefault(req.Size)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	fid, err := parseFidelityDefault(req.Fidelity)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	s.metrics.ObserveTiming("evaluate", fid.String())
	spec := evalSpec{prog: prog, plat: plat, sz: sz, transformed: req.Transformed, fid: fid}
	sub := submission{
		kind: "evaluate", key: evalKey(spec), spec: spec,
		timeoutMS: req.TimeoutMS, wait: req.Wait, body: req,
	}
	sub.memo = func() (any, bool) {
		st, ok := s.session.EvaluateMemoized(spec.job(), spec.sz)
		if !ok {
			return nil, false
		}
		return evaluateResult(spec, runner.Timing{Stats: st, Source: "memo"}), true
	}
	if spec.fid == pipeline.FidelityFull {
		sub.degrade = func() any {
			fast := spec
			fast.fid = pipeline.FidelityFast
			return fast
		}
	}
	s.submit(w, r, sub)
}

// evalKey is the ring key of a resolved evaluate spec: the key the
// cluster ring hashes when picking the primary to forward to.
func evalKey(spec evalSpec) string {
	return fmt.Sprintf("evaluate|%s|%s|%s|transformed=%v|fid=%s",
		spec.prog.Name, spec.plat.Name, spec.sz, spec.transformed, spec.fid)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	sz, err := parseSizeDefault(req.Size)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	spec := sweepSpec{kind: req.Kind, sz: sz, hot: req.Hot}
	if spec.hot <= 0 {
		spec.hot = 6
	}
	switch req.Kind {
	case "characterize":
		if req.Fidelity != "" {
			err = fmt.Errorf("fidelity applies to evaluate sweeps only")
			break
		}
		spec.acc, err = runner.ParseAccuracy(req.Accuracy)
		if err == nil {
			spec.progs, err = resolvePrograms(req.Programs, bio.All())
		}
	case "evaluate":
		if req.Accuracy != "" {
			err = fmt.Errorf("accuracy applies to characterize sweeps only")
			break
		}
		spec.fid, err = parseFidelityDefault(req.Fidelity)
		if err == nil {
			spec.progs, err = resolvePrograms(req.Programs, bio.Transformed())
		}
		if err == nil {
			spec.plats, err = resolvePlatforms(req.Platforms)
		}
	default:
		err = fmt.Errorf("unknown sweep kind %q (characterize|evaluate)", req.Kind)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if req.Kind == "evaluate" {
		s.metrics.ObserveTiming("sweep", spec.fid.String())
	} else {
		s.metrics.ObserveAccuracy("sweep", string(spec.acc))
	}
	sub := submission{
		kind: "sweep", key: sweepKey(spec), spec: spec,
		timeoutMS: req.TimeoutMS, wait: req.Wait, body: req,
	}
	if req.Kind == "evaluate" && spec.fid == pipeline.FidelityFull {
		sub.degrade = func() any {
			fast := spec
			fast.fid = pipeline.FidelityFast
			return fast
		}
	}
	s.submit(w, r, sub)
}

// sweepKey is the ring key of a resolved sweep spec: the key the
// cluster ring hashes when picking the primary to forward to.
func sweepKey(spec sweepSpec) string {
	names := make([]string, len(spec.progs))
	for i, p := range spec.progs {
		names[i] = p.Name
	}
	platNames := make([]string, len(spec.plats))
	for i, p := range spec.plats {
		platNames[i] = p.Name
	}
	return fmt.Sprintf("sweep|%s|%s|hot=%d|fid=%s|acc=%s|progs=%s|plats=%s",
		spec.kind, spec.sz, spec.hot, spec.fid, spec.acc, strings.Join(names, ","), strings.Join(platNames, ","))
}

// resolvePrograms maps names to programs, defaulting to def and
// keeping the paper's canonical order for named subsets.
func resolvePrograms(names []string, def []*bio.Program) ([]*bio.Program, error) {
	if len(names) == 0 {
		return def, nil
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	out := make([]*bio.Program, 0, len(sorted))
	for _, n := range sorted {
		p, err := bio.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func resolvePlatforms(names []string) ([]platform.Platform, error) {
	if len(names) == 0 {
		return platform.All(), nil
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	out := make([]platform.Platform, 0, len(sorted))
	for _, n := range sorted {
		p, err := platform.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.queue.get(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleJobEvents streams the job's progress log as NDJSON, one Event
// per line, ending after the terminal event once the job finishes.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.queue.get(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job " + r.PathValue("id")})
		return
	}
	j.Subscribe()
	defer j.Unsubscribe()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		// A hung-up client must unsubscribe promptly even when events
		// keep flowing (the select below only runs while waiting).
		if r.Context().Err() != nil {
			return
		}
		evs, terminal, changed := j.EventsSince(next)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal && len(evs) == 0 {
			return
		}
		if terminal {
			// Drain any events appended after the terminal one on the
			// next loop iteration, then exit.
			continue
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// HealthResponse is the GET /healthz document.
type HealthResponse struct {
	Status        string            `json:"status"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	QueueDepth    int               `json:"queue_depth"`
	Session       runner.Stats      `json:"session"`
	ServeSources  map[string]uint64 `json:"serve_sources"`
	EvalSources   map[string]uint64 `json:"evaluate_sources"`
	HotKeys       []HotKeyView      `json:"hot_keys,omitempty"` // top-10 most-served characterizations
	Cluster       *ClusterHealth    `json:"cluster,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		QueueDepth:    s.queue.depth(),
		Session:       s.session.Stats(),
		ServeSources:  s.serveSources(),
		EvalSources:   s.evaluateSources(),
		HotKeys:       s.metrics.HotKeys(10),
		Cluster:       s.clusterHealth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
	st := s.session.Stats()
	writeMetric(w, "bioperfd_queue_depth", "gauge", "Jobs admitted but not yet started.", s.queue.depth())
	writeMetric(w, "bioperfd_event_subscribers", "gauge", "Live NDJSON event-stream consumers.", s.queue.subscribers())
	for _, m := range []struct {
		name, help string
		v          uint64
	}{
		{"compiles", "Programs compiled (compile-memo misses).", st.Compiles},
		{"compile_hits", "Compiles answered from the session memo.", st.CompileHits},
		{"runs", "Functional simulation runs.", st.Runs},
		{"characterize_hits", "Characterizations answered from the session memo.", st.CharacterizeHits},
		{"replay_runs", "Characterizations served by replaying a stored trace.", st.ReplayRuns},
		{"replay_serial_fallbacks", "Trace replays that asked for parallelism but ran serially.", st.ReplaySerialFallbacks},
		{"profile_hits", "Characterizations served from a stored profile snapshot.", st.ProfileHits},
		{"peer_hits", "Characterizations served from a fleet peer's artifact.", st.PeerHits},
		{"sampled_chars", "Sampled characterizations computed from a phase plan.", st.SampledChars},
		{"sampled_hits", "Sampled characterizations served from a stored snapshot.", st.SampledHits},
		{"sampled_degrades", "Sampled requests degraded to the exact path.", st.SampledDegrades},
	} {
		writeMetric(w, "bioperfd_session_"+m.name, "counter", m.help, m.v)
	}
	sources := s.serveSources()
	fmt.Fprintln(w, "# HELP bioperfd_serve_source_total Characterizations answered, by serving tier.")
	fmt.Fprintln(w, "# TYPE bioperfd_serve_source_total counter")
	for _, src := range []string{"cold", "peer", "replay", "sampled", "snapshot"} {
		fmt.Fprintf(w, "bioperfd_serve_source_total{source=%q} %d\n", src, sources[src])
	}
	evals := s.evaluateSources()
	fmt.Fprintln(w, "# HELP bioperfd_evaluate_source_total Timing jobs answered, by serving tier.")
	fmt.Fprintln(w, "# TYPE bioperfd_evaluate_source_total counter")
	for _, src := range []string{"cold", "memo", "peer", "store"} {
		fmt.Fprintf(w, "bioperfd_evaluate_source_total{source=%q} %d\n", src, evals[src])
	}
	if c := s.cfg.Cluster; c != nil {
		cs := c.Stats()
		fmt.Fprintln(w, "# HELP bioperfd_peer_fetch_total Peer artifact fetch attempts by outcome.")
		fmt.Fprintln(w, "# TYPE bioperfd_peer_fetch_total counter")
		fmt.Fprintf(w, "bioperfd_peer_fetch_total{result=\"hit\"} %d\n", cs.FetchHits)
		fmt.Fprintf(w, "bioperfd_peer_fetch_total{result=\"miss\"} %d\n", cs.FetchMisses)
		fmt.Fprintf(w, "bioperfd_peer_fetch_total{result=\"error\"} %d\n", cs.FetchErrors)
		fmt.Fprintf(w, "bioperfd_peer_fetch_total{result=\"corrupt\"} %d\n", cs.FetchCorrupt)
		fmt.Fprintln(w, "# HELP bioperfd_replicate_total Write-through replication pushes by outcome.")
		fmt.Fprintln(w, "# TYPE bioperfd_replicate_total counter")
		fmt.Fprintf(w, "bioperfd_replicate_total{result=\"ok\"} %d\n", cs.Replicated)
		fmt.Fprintf(w, "bioperfd_replicate_total{result=\"error\"} %d\n", cs.ReplicateError)
	}
	if as := s.session.Store(); as != nil {
		ss := as.Stats()
		writeMetric(w, "bioperfd_store_hits", "counter", "Artifact store reads that returned an intact entry.", ss.Hits)
		writeMetric(w, "bioperfd_store_misses", "counter", "Artifact store reads that found no intact entry.", ss.Misses)
		writeMetric(w, "bioperfd_store_evictions", "counter", "Artifact store entries evicted to stay under the size cap.", ss.Evictions)
		writeMetric(w, "bioperfd_store_entries", "gauge", "Artifact store entries.", ss.Entries)
		writeMetric(w, "bioperfd_store_bytes_on_disk", "gauge", "Artifact store bytes on disk.", ss.BytesOnDisk)
	}
}

// writeMetric writes one unlabeled metric family: its HELP and TYPE
// lines and its one sample.
func writeMetric(w io.Writer, name, typ, help string, v any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
}

// statusWriter captures the status code for metrics and forwards
// Flush for streaming handlers.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.metrics.ObserveRequest(route, sw.code, time.Since(start))
	})
}
