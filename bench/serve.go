package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
	"bioperfload/internal/service"
	"bioperfload/internal/store"
)

// serve is bioperfd under a closed loop. Set-up fills a store with the
// nine programs' snapshots (a cold characterization of all nine) and
// starts an in-process service on a fresh session over that store,
// behind a loopback HTTP server. Each pass is one round of requests
// from jobs clients, each sending its next request only after the
// previous reply — bioperfd callers wait for their answer. A round is
// 60% characterize at the workload's size, 30% fast-tier and 10%
// full-tier evaluate at test size, in the exact proportions: every
// program is characterized roundChars times, and every program ×
// platform is evaluated roundFast times on the fast tier and once on
// the full tier. The seed draws each evaluation's variant and the
// order of the round. The short timing runs are the opposite of the
// cold workload's long simulations; the characterizations exercise
// HTTP, the queue, rendering and the snapshot tier.
type serve struct {
	e       *env
	progs   []*bio.Program
	evProgs []*bio.Program
	plats   []platform.Platform
	evGold  *golden // test-size instruction counts and full-tier cycles
	rng     *rand.Rand
	dir     string
	st      *store.Store
	srv     *service.Server
	hs      *httptest.Server
	client  *http.Client

	mu       sync.Mutex
	latAll   []float64 // client latency of every request, ms
	latTrace []float64 // client latency of traced requests, ms
	rejected int
}

// Round composition: per program characterizations, and per program ×
// platform fast-tier evaluations (each full-tier count is one).
const (
	roundChars = 16
	roundFast  = 3
)

func newServe(e *env) workload {
	return &serve{
		e: e, progs: bio.All(), evProgs: bio.Transformed(), plats: platform.All(),
		rng: rand.New(rand.NewSource(e.seed)),
	}
}

// setup fills a fresh store cold and starts the service over it.
func (w *serve) setup(ctx context.Context) error {
	if w.evGold == nil {
		var err error
		if w.evGold, err = loadGolden(bio.SizeTest); err != nil {
			return err
		}
	}
	w.close()
	dir, err := w.e.tempDir("serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	fill := runner.NewSessionWithStore(w.e.jobs, st)
	if _, err := fill.CharacterizeAll(ctx, w.e.size); err != nil {
		st.Close()
		return err
	}
	if n := fill.Stats().ColdChars; n != uint64(len(w.progs)) {
		st.Close()
		return fmt.Errorf("store fill: %d cold characterizations, want %d", n, len(w.progs))
	}
	w.st = st
	w.srv = service.New(service.Config{Session: runner.NewSessionWithStore(w.e.jobs, st), Workers: w.e.jobs})
	w.hs = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: w.e.jobs, MaxIdleConnsPerHost: w.e.jobs}}
	return nil
}

// request is one request of a round.
type request struct {
	path string
	char *service.CharacterizeRequest
	eval *service.EvaluateRequest
}

func (w *serve) round() []request {
	var rs []request
	for _, p := range w.progs {
		for i := 0; i < roundChars; i++ {
			rs = append(rs, request{path: "/v1/characterize", char: &service.CharacterizeRequest{
				Program: p.Name, Size: w.e.size.String(), Wait: true,
			}})
		}
	}
	for _, p := range w.evProgs {
		for _, pl := range w.plats {
			for i := 0; i <= roundFast; i++ {
				fid := "fast"
				if i == roundFast {
					fid = "full"
				}
				rs = append(rs, request{path: "/v1/evaluate", eval: &service.EvaluateRequest{
					Program: p.Name, Platform: pl.Name, Size: bio.SizeTest.String(),
					Transformed: w.rng.Intn(2) == 1, Fidelity: fid, Wait: true,
				}})
			}
		}
	}
	w.rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}

// reply is a request's outcome as the client saw it.
type reply struct {
	status int
	body   []byte
	err    error
}

func (w *serve) pass(ctx context.Context, tr *tracer, parent, op int) func() {
	rs := w.round()
	replies := make([]reply, len(rs))
	lat := make([]float64, len(rs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.e.jobs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rs) {
					return
				}
				id := tr.begin("service.request", parent, op)
				tr.request(id, op*len(rs)+i)
				t0 := time.Now()
				replies[i] = w.do(ctx, rs[i])
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	return func() {
		w.mu.Lock()
		w.latAll = append(w.latAll, lat...)
		if tr != nil {
			w.latTrace = append(w.latTrace, lat...)
		}
		w.mu.Unlock()
		for i, r := range rs {
			w.e.chk.op(w.check(r, replies[i]))
		}
		// Every round characterizes all nine programs, so after one the
		// serving session has touched each exactly once — from the
		// snapshot tier, never cold.
		src, err := w.serveSources(ctx)
		if err == nil && (src["snapshot"] != float64(len(w.progs)) || src["cold"] != 0) {
			err = fmt.Errorf("serve sources: %v snapshot, %v cold; want %d and 0", src["snapshot"], src["cold"], len(w.progs))
		}
		w.e.chk.assert(err)
	}
}

func (w *serve) do(ctx context.Context, r request) reply {
	var doc any = r.char
	if r.eval != nil {
		doc = r.eval
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return reply{err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.hs.URL+r.path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: data, err: err}
}

// check verifies one reply: a completed job whose result matches the
// goldens — the profile text of a characterization, the instruction
// count of a fast-tier evaluation, the cycle counts of a full-tier one.
func (w *serve) check(r request, rep reply) error {
	if rep.err != nil {
		return rep.err
	}
	if rep.status == http.StatusTooManyRequests || rep.status >= 500 {
		w.mu.Lock()
		w.rejected++
		w.mu.Unlock()
	}
	var view struct {
		Status service.Status   `json:"status"`
		Error  string           `json:"error"`
		Result *json.RawMessage `json:"result"`
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", r.path, rep.status, strings.TrimSpace(string(rep.body)))
	}
	if err := json.Unmarshal(rep.body, &view); err != nil {
		return fmt.Errorf("%s: %w", r.path, err)
	}
	if view.Status != service.StatusDone || view.Result == nil {
		return fmt.Errorf("%s: job %s: %s", r.path, view.Status, view.Error)
	}
	if r.char != nil {
		var res service.CharacterizeResult
		if err := json.Unmarshal(*view.Result, &res); err != nil {
			return err
		}
		if res.Source != "snapshot" {
			return fmt.Errorf("characterize %s: served from %q, want snapshot", res.Program, res.Source)
		}
		return w.e.gold.checkReport(r.char.Program, res.Report)
	}
	var res service.EvaluateResult
	if err := json.Unmarshal(*view.Result, &res); err != nil {
		return err
	}
	e := r.eval
	if e.Fidelity == "fast" {
		return w.evGold.checkInstructions(e.Program, e.Platform, e.Transformed, res.Instructions)
	}
	k := e.Program + "/" + e.Platform
	row, ok := w.evGold.Table8[k]
	want := row.Orig
	if e.Transformed {
		want = row.Trans
	}
	if !ok || res.Cycles != want {
		return fmt.Errorf("evaluate %s/%s full: %d cycles, golden %d", k, variantName(e.Transformed), res.Cycles, want)
	}
	return nil
}

// scrape reads the service's /metrics into sample values by series
// (the metric name with its labels, as printed).
func (w *serve) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.hs.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func (w *serve) serveSources(ctx context.Context) (map[string]float64, error) {
	m, err := w.scrape(ctx)
	if err != nil {
		return nil, err
	}
	src := make(map[string]float64)
	for _, s := range []string{"snapshot", "cold"} {
		v, ok := m[`bioperfd_serve_source_total{source="`+s+`"}`]
		if !ok {
			return nil, fmt.Errorf("/metrics: no %s serve-source series", s)
		}
		src[s] = v
	}
	return src, nil
}

func (w *serve) layers(ctx context.Context, _ map[string]float64, m map[string]float64) {
	w.mu.Lock()
	pct, tailMS := tail(w.latTrace)
	m["service.requests"] = float64(len(w.latTrace))
	m["service.req_p50_ms"] = median(w.latTrace)
	m["service.req_tail_ms"] = tailMS
	m["service.req_tail_pct"] = pct
	m["service.rejected"] = float64(w.rejected)
	meanLat := mean(w.latAll)
	w.mu.Unlock()

	met, err := w.scrape(ctx)
	if err != nil {
		w.e.chk.assert(err)
		return
	}
	m["service.serve_source.snapshot"] = met[`bioperfd_serve_source_total{source="snapshot"}`]
	m["service.serve_source.cold"] = met[`bioperfd_serve_source_total{source="cold"}`]
	var jobSum, jobCount float64
	for _, kind := range []string{"characterize", "evaluate"} {
		sum := met[`bioperfd_job_duration_seconds_sum{kind="`+kind+`"}`]
		count := met[`bioperfd_job_duration_seconds_count{kind="`+kind+`"}`]
		if count > 0 {
			m["service.job_ms."+kind] = 1000 * sum / count
		}
		jobSum += sum
		jobCount += count
	}
	if jobCount > 0 {
		m["service.overhead_ms"] = meanLat - 1000*jobSum/jobCount
	}
	w.direct(ctx, m)
}

// direct times the layers under the service without HTTP or the
// queue: snapshot loads and renders on a fresh session over the store,
// and the evaluations of one round called on the session directly.
func (w *serve) direct(ctx context.Context, m map[string]float64) {
	s := runner.NewSessionWithStore(w.e.jobs, w.st)
	var load, render time.Duration
	for _, p := range w.progs {
		t0 := time.Now()
		prof, err := s.Characterize(ctx, p, w.e.size)
		t1 := time.Now()
		if err != nil {
			w.e.chk.assert(err)
			return
		}
		report := loadchar.RenderProfile(p.Name, w.e.size.String(), prof.Analysis, profileHot)
		render += time.Since(t1)
		load += t1.Sub(t0)
		w.e.chk.assert(w.e.gold.checkReport(p.Name, report))
	}
	n := float64(len(w.progs))
	m["runner.snapshot_load_ms"] = float64(load.Nanoseconds()) / 1e6 / n
	m["loadchar.render_ms"] = float64(render.Nanoseconds()) / 1e6 / n

	var fast, full []float64
	for _, r := range w.round() {
		e := r.eval
		if e == nil {
			continue
		}
		p, err := bio.ByName(e.Program)
		if err == nil {
			var pl platform.Platform
			pl, err = platform.ByName(e.Platform)
			fid := pipeline.FidelityFast
			if e.Fidelity == "full" {
				fid = pipeline.FidelityFull
			}
			t0 := time.Now()
			if err == nil {
				_, err = s.Evaluate(ctx, p, pl.WithFidelity(fid), bio.SizeTest, e.Transformed)
			}
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			if fid == pipeline.FidelityFull {
				full = append(full, ms)
			} else {
				fast = append(fast, ms)
			}
		}
		if err != nil {
			w.e.chk.assert(err)
			return
		}
	}
	m["runner.evaluate_fast_ms"] = mean(fast)
	m["runner.evaluate_full_ms"] = mean(full)
}

func (w *serve) close() {
	if w.hs != nil {
		w.hs.Close()
		w.hs = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.srv.Shutdown(ctx)
		cancel()
		w.srv = nil
	}
	if w.st != nil {
		w.st.Close()
		w.st = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
