package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
)

// jobEvents returns the messages of a finished job's event log.
func jobEvents(t *testing.T, base, id string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, ev.Message)
	}
	return msgs
}

func hasEvent(msgs []string, want string) bool {
	for _, m := range msgs {
		if m == want {
			return true
		}
	}
	return false
}

// TestEvaluateSources: an evaluate reports the tier that answered it,
// in its result and its events; a sweep reports the functional runs it
// actually spent; the evaluate-source series counts every timing job
// while serve_source stays with characterizations. Every request uses
// its own queue key: a repeat of a just-finished request may join that
// job, which has not left the in-flight table yet.
func TestEvaluateSources(t *testing.T) {
	sess := runner.NewSession(2)
	_, ts := newTestServer(t, Config{Session: sess})
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := platform.ByName("alpha21264")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Evaluate(context.Background(), p, alpha.WithFidelity(pipeline.FidelityFast), bio.SizeTest, true); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		transformed bool
		want        string
	}{{false, "cold"}, {true, "memo"}} {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", map[string]any{
			"program": "hmmsearch", "platform": "alpha21264", "size": "test",
			"transformed": c.transformed, "wait": true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate: HTTP %d: %s", resp.StatusCode, body)
		}
		var view struct {
			JobID  string         `json:"job_id"`
			Result EvaluateResult `json:"result"`
		}
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if view.Result.Source != c.want {
			t.Errorf("evaluate (transformed=%v) served from %q, want %q", c.transformed, view.Result.Source, c.want)
		}
		if msgs := jobEvents(t, ts.URL, view.JobID); !hasEvent(msgs, "answered from the "+c.want+" tier") {
			t.Errorf("evaluate events %q do not name the %s tier", msgs, c.want)
		}
	}

	// Both hmmsearch variants are memoized by now: only clustalw's two
	// variants run, and hmmsearch alone runs nothing.
	for _, c := range []struct {
		programs []string
		want     string
	}{
		{[]string{"clustalw", "hmmsearch"}, "2 cells timed in 2 functional runs"},
		{[]string{"hmmsearch"}, "1 cells timed in 0 functional runs"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
			"kind": "evaluate", "programs": c.programs,
			"platforms": []string{"alpha21264"}, "size": "test", "wait": true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep: HTTP %d: %s", resp.StatusCode, body)
		}
		var view JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		if msgs := jobEvents(t, ts.URL, view.JobID); !hasEvent(msgs, c.want) {
			t.Errorf("sweep events %q lack %q", msgs, c.want)
		}
	}

	metrics := scrapeMetrics(t, ts.URL)
	mustContain(t, metrics, `bioperfd_evaluate_source_total{source="cold"} 4`)
	mustContain(t, metrics, `bioperfd_evaluate_source_total{source="memo"} 5`)
	mustContain(t, metrics, `bioperfd_evaluate_source_total{source="store"} 0`)
	mustContain(t, metrics, `bioperfd_serve_source_total{source="cold"} 0`)
	mustContain(t, metrics, `bioperfd_serve_source_total{source="snapshot"} 0`)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.EvalSources["cold"] != 4 || health.EvalSources["memo"] != 5 {
		t.Errorf("healthz evaluate_sources = %v, want cold 4 and memo 5", health.EvalSources)
	}
	if health.ServeSources["cold"] != 0 {
		t.Errorf("healthz serve_sources = %v counts evaluations", health.ServeSources)
	}
}

// TestShedAnswersMemoizedEvaluate: with the queue saturated, a
// full-tier evaluate whose result is memoized is answered at once —
// 200, the exact cycles, no degraded marker — instead of walking the
// ladder, while an unmemoized one still degrades.
func TestShedAnswersMemoizedEvaluate(t *testing.T) {
	sess := runner.NewSession(1)
	srv, ts := newTestServer(t, Config{Session: sess, QueueDepth: 1, Workers: 1})
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	plat, err := platform.ByName("alpha21264")
	if err != nil {
		t.Fatal(err)
	}
	full := plat.WithFidelity(pipeline.FidelityFull)
	if _, err := sess.Evaluate(context.Background(), p, full, bio.SizeTest, false); err != nil {
		t.Fatal(err)
	}
	golden, err := runner.NewSession(1).Evaluate(context.Background(), p, full, bio.SizeTest, false)
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	started := make(chan struct{}, 4)
	srv.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		started <- struct{}{}
		<-release
		return nil, ctx.Err()
	}
	defer close(release)
	// Saturate: one job running on the only worker, one queued.
	for i, prog := range []string{"hmmsearch", "fasta"} {
		if resp, body := postJSON(t, ts.URL+"/v1/characterize",
			map[string]any{"program": prog, "size": "test"}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("saturation: HTTP %d: %s", resp.StatusCode, body)
		}
		if i == 0 {
			<-started
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{
		Program: "hmmsearch", Platform: "alpha21264", Size: "test", Fidelity: "full", Wait: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("memoized evaluate on a full queue: HTTP %d: %s", resp.StatusCode, body)
	}
	if d := resp.Header.Get(HeaderDegraded); d != "" {
		t.Fatalf("memoized evaluate was degraded to %q", d)
	}
	var view struct {
		Status Status         `json:"status"`
		Result EvaluateResult `json:"result"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone || view.Result.Fidelity != "full" || view.Result.Source != "memo" || view.Result.Cycles != golden.Cycles {
		t.Fatalf("memoized evaluate answered %s: %+v (want full tier, memo, %d cycles)", view.Status, view.Result, golden.Cycles)
	}

	// Not memoized: the ladder still degrades it.
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{
		Program: "hmmsearch", Platform: "alpha21264", Size: "test", Fidelity: "full", Transformed: true,
	})
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get(HeaderDegraded) != "fast" {
		t.Fatalf("unmemoized evaluate on a full queue: HTTP %d, degraded %q: %s",
			resp.StatusCode, resp.Header.Get(HeaderDegraded), body)
	}
}
