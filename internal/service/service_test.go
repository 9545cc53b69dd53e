package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/runner"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// newTestServer builds a Server plus loopback HTTP listener. The
// returned Server's queue executor can be swapped before any request
// is submitted (tests that fake the executor do so immediately).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestBackpressure429 fills one worker and a depth-1 queue with
// blocking jobs; the next submission must be rejected with 429, and
// releasing the worker must let everything finish.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Session: runner.NewSession(1), QueueDepth: 1, Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		started <- struct{}{}
		<-release
		return "ok", nil
	}

	progs := bio.All()
	var ids []string
	submit := func(i int) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/characterize",
			map[string]any{"program": progs[i].Name, "size": "test"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: got HTTP %d, want 202: %s", i, resp.StatusCode, body)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.JobID)
	}
	// Occupy the worker, wait until it is provably running, then fill
	// the single queue slot: the next submission must overflow.
	submit(0)
	<-started
	submit(1)

	resp, body := postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": progs[2].Name, "size": "test"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: got HTTP %d, want 429: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("429 body missing reason: %s", body)
	}

	close(release)
	for _, id := range ids {
		waitStatus(t, ts, id, StatusDone)
	}
}

func waitStatus(t *testing.T, ts *httptest.Server, id string, want Status) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == want {
			return v
		}
		if v.Status == StatusDone || v.Status == StatusFailed {
			t.Fatalf("job %s reached %s, want %s (error=%q)", id, v.Status, want, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %s, want %s", id, v.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSingleflightDedup fills every worker and queue slot with
// identical characterize requests: each is a job of its own, and the
// jobs meet at the Session's memo, so between them they cost one
// compile and one simulation run. The workers are held until the queue
// is full, so admission does not race the first run.
func TestSingleflightDedup(t *testing.T) {
	sess := runner.NewSession(2)
	s, ts := newTestServer(t, Config{Session: sess, QueueDepth: 16, Workers: 4})
	const n = 16 + 4
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	started := make(chan struct{}, n)
	exec := s.queue.exec
	s.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		started <- struct{}{}
		<-release
		return exec(ctx, j)
	}
	baseline := runtime.NumGoroutine()

	ids := make([]string, n)
	reports := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		resp, body := postJSON(t, ts.URL+"/v1/characterize",
			map[string]any{"program": "hmmsearch", "size": "test", "wait": true})
		if resp.StatusCode != http.StatusOK {
			errs[i] = fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
			return
		}
		var v struct {
			JobID  string `json:"job_id"`
			Status Status `json:"status"`
			Result struct {
				Report string `json:"report"`
			} `json:"result"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			errs[i] = err
			return
		}
		if v.Status != StatusDone {
			errs[i] = fmt.Errorf("status %s: %s", v.Status, body)
			return
		}
		ids[i], reports[i] = v.JobID, v.Result.Report
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go send(i)
		if i < 4 {
			// Worker i holds job i, so the queue counts from 0.
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Fatalf("request %d started no job", i)
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); s.queue.depth() < 16; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want 16", s.queue.depth())
		}
	}
	unblock()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		if reports[i] != reports[0] {
			t.Fatalf("request %d returned a different report", i)
		}
		seen[ids[i]] = true
	}
	if len(seen) != n {
		t.Fatalf("%d identical requests made %d distinct jobs, want %d", n, len(seen), n)
	}
	st := sess.Stats()
	if st.Compiles != 1 {
		t.Fatalf("session compiled %d times for %d identical requests, want 1", st.Compiles, n)
	}
	if st.Runs != 1 {
		t.Fatalf("session simulated %d times for %d identical requests, want 1", st.Runs, n)
	}
	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the storm, baseline %d", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestJobKeepsOwnTimeout sends two identical wait requests, the second
// with the shorter timeout: each is its own job, so the second fails on
// its own deadline while the first runs on and succeeds.
func TestJobKeepsOwnTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Session: runner.NewSession(1), QueueDepth: 4, Workers: 2})
	started := make(chan struct{}, 2)
	s.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		started <- struct{}{}
		select {
		case <-time.After(300 * time.Millisecond):
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	req := func(timeoutMS int) (JobView, time.Duration) {
		t0 := time.Now()
		resp, body := postJSON(t, ts.URL+"/v1/characterize",
			map[string]any{"program": "hmmsearch", "size": "test", "timeout_ms": timeoutMS, "wait": true})
		took := time.Since(t0)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("timeout_ms %d: HTTP %d: %s", timeoutMS, resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Error(err)
		}
		return v, took
	}
	first := make(chan JobView, 1)
	go func() {
		v, _ := req(2000)
		first <- v
	}()
	<-started
	short, took := req(50)
	if short.Status != StatusFailed || !strings.Contains(short.Error, "deadline exceeded") {
		t.Fatalf("short request: status %s, error %q; want failed on its deadline", short.Status, short.Error)
	}
	if took >= 200*time.Millisecond {
		t.Fatalf("short request took %v, want it to end on its own 50 ms deadline", took)
	}
	long := <-first
	if long.Status != StatusDone {
		t.Fatalf("long request: status %s, error %q; want done", long.Status, long.Error)
	}
	if short.JobID == long.JobID {
		t.Fatalf("both requests answered by job %s", long.JobID)
	}
}

// TestGracefulShutdownDrain verifies Shutdown lets queued jobs finish
// and that post-shutdown submissions get 503.
func TestGracefulShutdownDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Session: runner.NewSession(1), QueueDepth: 8, Workers: 1})
	started := make(chan struct{})
	s.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		time.Sleep(20 * time.Millisecond)
		return "drained", nil
	}

	progs := bio.All()
	var ids []string
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/characterize",
			map[string]any{"program": progs[i].Name, "size": "test"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.JobID)
	}
	<-started // at least one job is running when we start draining

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range ids {
		v := waitStatus(t, ts, id, StatusDone)
		if v.Result != "drained" {
			t.Fatalf("job %s result %v after drain", id, v.Result)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "test"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: got HTTP %d, want 503: %s", resp.StatusCode, body)
	}
}

// TestShutdownCancelsInflight verifies that when the drain budget
// expires, the base context is canceled and a blocked job fails
// instead of wedging shutdown forever.
func TestShutdownCancelsInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Session: runner.NewSession(1), QueueDepth: 8, Workers: 1})
	started := make(chan struct{})
	s.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done() // hold until canceled
		return nil, ctx.Err()
	}
	resp, body := postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "test"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown error = %v, want deadline exceeded", err)
	}
	v := waitStatus(t, ts, sub.JobID, StatusFailed)
	if !strings.Contains(v.Error, "context canceled") {
		t.Fatalf("canceled job error = %q", v.Error)
	}
}

// TestJobTimeout runs a real class-B characterization under a timeout
// far below its simulation time and expects a failed job carrying the
// deadline error — proving cancellation reaches the simulator loop.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: runner.NewSession(1), QueueDepth: 4, Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "classB", "timeout_ms": 1, "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusFailed {
		t.Fatalf("status %s, want failed: %s", v.Status, body)
	}
	if !strings.Contains(v.Error, "deadline exceeded") {
		t.Fatalf("error %q does not mention the deadline", v.Error)
	}
}

// TestFinishedJobsPruned: every request is a job of its own, and the
// queue remembers only the newest maxFinishedJobs finished jobs; an
// older job's ID answers 404 and leaves the job table.
func TestFinishedJobsPruned(t *testing.T) {
	srv, ts := newTestServer(t, Config{Session: runner.NewSession(1), QueueDepth: 4, Workers: 1})
	srv.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		return map[string]string{"answered": j.ID}, nil
	}
	// A waiting client is answered when its job finishes, just before
	// the queue retires it; onDone runs after.
	const extra = 3
	retired := make(chan struct{}, maxFinishedJobs+extra)
	onDone := srv.queue.onDone
	srv.queue.onDone = func(j *Job) {
		onDone(j)
		retired <- struct{}{}
	}
	var ids []string
	seen := make(map[string]bool)
	for i := 0; i < maxFinishedJobs+extra; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/characterize",
			map[string]any{"program": "hmmsearch", "size": "test", "wait": true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.JobID)
		seen[v.JobID] = true
	}
	// Identical requests never join an earlier job, finished or not.
	if len(seen) != len(ids) {
		t.Fatalf("%d identical requests made %d distinct jobs", len(ids), len(seen))
	}
	for range ids {
		<-retired
	}
	srv.queue.mu.Lock()
	n := len(srv.queue.byID)
	srv.queue.mu.Unlock()
	if n != maxFinishedJobs {
		t.Errorf("job table holds %d jobs, want %d", n, maxFinishedJobs)
	}
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if i < extra {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Errorf("GET job %d of %d: HTTP %d, want %d", i, len(ids), resp.StatusCode, want)
		}
	}
}

// TestGoldenReportMatchesCLI asserts the API's report field is
// byte-equivalent to the CLI -profile rendering for the same
// (program, size) — both paths share loadchar.RenderProfile over the
// same deterministic simulation.
func TestGoldenReportMatchesCLI(t *testing.T) {
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := runner.NewSession(1).Characterize(context.Background(), p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof.Analysis, 6)

	_, ts := newTestServer(t, Config{Session: runner.NewSession(1)})
	resp, body := postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "test", "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var v struct {
		Status Status `json:"status"`
		Result struct {
			Report       string `json:"report"`
			Instructions uint64 `json:"instructions"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("status %s: %s", v.Status, body)
	}
	if v.Result.Report != want {
		t.Fatalf("API report differs from CLI rendering:\n--- API ---\n%s\n--- CLI ---\n%s",
			v.Result.Report, want)
	}
	if v.Result.Instructions != prof.Instructions {
		t.Fatalf("API instructions %d != CLI %d", v.Result.Instructions, prof.Instructions)
	}
}

// TestEventsStream reads the NDJSON progress stream of a finished job
// end to end.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: runner.NewSession(1)})
	resp, body := postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "test", "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	// Submit again without wait to learn a job ID: a job of its own,
	// answered by a memo hit.
	resp, body = postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "test"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts, sub.JobID, StatusDone)

	evResp, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(evResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected at least running+done events, got %d lines: %s", len(lines), raw)
	}
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Message != "done" {
		t.Fatalf("terminal event %q, want done", last.Message)
	}
}

// TestValidationAndRouting covers the 400/404 paths and the metrics
// and health endpoints.
func TestValidationAndRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: runner.NewSession(1)})

	resp, body := postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "nonesuch"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown program: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "classZ"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown size: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/evaluate",
		map[string]any{"program": "hmmsearch", "platform": "vax11"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown platform: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/sweep", map[string]any{"kind": "everything"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown sweep kind: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "bogus_field": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d: %s", resp.StatusCode, body)
	}

	getResp, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", getResp.StatusCode)
	}

	getResp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	err = json.NewDecoder(getResp.Body).Decode(&health)
	getResp.Body.Close()
	if err != nil || health.Status != "ok" {
		t.Fatalf("healthz: %v %+v", err, health)
	}

	getResp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bioperfd_http_requests_total",
		`route="characterize",code="400"`,
		"bioperfd_queue_depth",
		"bioperfd_session_compiles",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestJobBodiesBounded: a job request body over maxRequestBody is
// refused with 413 on every job route, before it is buffered whole.
func TestJobBodiesBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: runner.NewSession(1)})
	body := map[string]any{"program": strings.Repeat("a", 1<<20)}
	for _, route := range []string{"characterize", "evaluate", "sweep"} {
		resp, out := postJSON(t, ts.URL+"/v1/"+route, body)
		var e apiError
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(out, &e) != nil || e.Error == "" {
			t.Errorf("%s: 1 MiB body: HTTP %d: %.200s", route, resp.StatusCode, out)
		}
	}
}

// TestEvaluateAndSweep exercises the evaluate and sweep kinds end to
// end at test size on a narrowed program/platform set.
func TestEvaluateAndSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: runner.NewSession(2)})

	resp, body := postJSON(t, ts.URL+"/v1/evaluate", map[string]any{
		"program": "hmmsearch", "platform": "alpha21264", "size": "test", "wait": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: HTTP %d: %s", resp.StatusCode, body)
	}
	var ev struct {
		Status Status         `json:"status"`
		Result EvaluateResult `json:"result"`
	}
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Status != StatusDone || ev.Result.Cycles == 0 || ev.Result.IPC <= 0 {
		t.Fatalf("evaluate result: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"kind": "evaluate", "programs": []string{"hmmsearch"},
		"platforms": []string{"alpha21264"}, "size": "test", "wait": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", resp.StatusCode, body)
	}
	var sw struct {
		Status Status      `json:"status"`
		Result SweepResult `json:"result"`
	}
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Status != StatusDone || len(sw.Result.Evaluate) != 1 {
		t.Fatalf("sweep result: %s", body)
	}
	cell := sw.Result.Evaluate[0]
	if cell.CyclesOrig == 0 || cell.CyclesTrans == 0 {
		t.Fatalf("sweep cell missing cycles: %+v", cell)
	}
	if cell.CyclesOrig != ev.Result.Cycles {
		t.Fatalf("sweep original cycles %d != evaluate cycles %d", cell.CyclesOrig, ev.Result.Cycles)
	}
}

// TestEventsSubscriberDrainOnDisconnect: NDJSON streaming clients that
// hang up mid-job must release their subscription promptly — while the
// job is still running — not when the terminal event finally arrives.
func TestEventsSubscriberDrainOnDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{Session: runner.NewSession(1), Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	s.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		// Keep the job alive and chatty so the streaming loop is
		// actively delivering events when clients disconnect.
		for i := 0; ; i++ {
			select {
			case <-release:
				return "ok", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(2 * time.Millisecond):
				j.Event("tick %d", i)
			}
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "test"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	j := s.queue.get(sub.JobID)
	if j == nil {
		t.Fatal("submitted job not found")
	}

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+sub.JobID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		evResp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Read at least one event so the stream is known-established,
		// then hang up.
		if _, err := bufio.NewReader(evResp.Body).ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		cancel()
		evResp.Body.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.queue.subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers still registered after all clients disconnected", s.queue.subscribers())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The drain happened while the job was still running — proving the
	// handler noticed the disconnect rather than waiting for "done".
	if st := j.Status(); st != StatusRunning {
		t.Fatalf("job reached %s before subscribers drained", st)
	}
	close(release)
	waitStatus(t, ts, sub.JobID, StatusDone)
	if n := s.queue.subscribers(); n != 0 {
		t.Fatalf("%d subscribers after job completion", n)
	}
}

// TestFidelityRoutingAndStrictDecode covers the timing-tier plumbing:
// the fidelity field routes to the right model (default fast), bad
// tiers and misplaced fields are rejected, a request body with
// trailing data is rejected, and the per-tier counter shows up in
// /metrics.
func TestFidelityRoutingAndStrictDecode(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: runner.NewSession(1)})

	eval := func(extra map[string]any) EvaluateResult {
		t.Helper()
		req := map[string]any{
			"program": "hmmsearch", "platform": "alpha21264", "size": "test", "wait": true,
		}
		for k, v := range extra {
			req[k] = v
		}
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %v: HTTP %d: %s", extra, resp.StatusCode, body)
		}
		var ev struct {
			Status Status         `json:"status"`
			Result EvaluateResult `json:"result"`
		}
		if err := json.Unmarshal(body, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Status != StatusDone {
			t.Fatalf("evaluate %v: %s", extra, body)
		}
		return ev.Result
	}

	def := eval(nil)
	if def.Fidelity != "fast" {
		t.Errorf("default fidelity = %q, want fast", def.Fidelity)
	}
	fast := eval(map[string]any{"fidelity": "fast"})
	full := eval(map[string]any{"fidelity": "full"})
	if fast.Fidelity != "fast" || full.Fidelity != "full" {
		t.Errorf("fidelity echoes: fast=%q full=%q", fast.Fidelity, full.Fidelity)
	}
	if fast.Cycles != def.Cycles {
		t.Errorf("explicit fast (%d cycles) differs from default (%d)", fast.Cycles, def.Cycles)
	}
	// Both tiers ride the same functional run: identical instruction
	// counts, different cycle estimates.
	if fast.Instructions != full.Instructions {
		t.Errorf("fast counted %d instructions, full %d", fast.Instructions, full.Instructions)
	}
	if fast.Cycles == full.Cycles {
		t.Errorf("fast and full both report %d cycles; tiers are not being routed", fast.Cycles)
	}

	// Rejection table: every malformed timing request must 400.
	rejects := []struct {
		name string
		url  string
		req  map[string]any
	}{
		{"bad evaluate fidelity", "/v1/evaluate",
			map[string]any{"program": "hmmsearch", "platform": "alpha21264", "fidelity": "approximate"}},
		{"bad sweep fidelity", "/v1/sweep",
			map[string]any{"kind": "evaluate", "fidelity": "approximate"}},
		{"fidelity on characterize sweep", "/v1/sweep",
			map[string]any{"kind": "characterize", "fidelity": "fast"}},
		{"unknown evaluate field", "/v1/evaluate",
			map[string]any{"program": "hmmsearch", "platform": "alpha21264", "fidelty": "fast"}},
	}
	for _, rc := range rejects {
		resp, body := postJSON(t, ts.URL+rc.url, rc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d: %s", rc.name, resp.StatusCode, body)
		}
	}

	// Trailing data after the JSON document is malformed.
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
		strings.NewReader(`{"program":"hmmsearch","platform":"alpha21264"}{"again":true}`))
	if err != nil {
		t.Fatal(err)
	}
	trailBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing JSON: HTTP %d: %s", resp.StatusCode, trailBody)
	}

	// The per-tier counters must appear in /metrics.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	for _, want := range []string{
		`bioperfd_timing_requests_total{kind="evaluate",fidelity="fast"} 2`,
		`bioperfd_timing_requests_total{kind="evaluate",fidelity="full"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
