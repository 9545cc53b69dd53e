package service

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"bioperfload/internal/cluster"
	"bioperfload/internal/runner"
	"bioperfload/internal/store"
)

// TestMetricsStoreCounters proves /metrics surfaces the artifact-store
// statistics next to the session cache counters, and that serving a
// characterization from a warm store moves the hit counter.
func TestMetricsStoreCounters(t *testing.T) {
	dir := t.TempDir()

	// Session 1: characterize cold, populating the store.
	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess1 := runner.NewSessionWithStore(1, st1)
	_, ts1 := newTestServer(t, Config{Session: sess1, QueueDepth: 4, Workers: 1})
	resp, body := postJSON(t, ts1.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "test", "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize: HTTP %d: %s", resp.StatusCode, body)
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: same store directory — the request must be served warm
	// (from the persisted snapshot) and counted as store hits.
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sess2 := runner.NewSessionWithStore(1, st2)
	_, ts2 := newTestServer(t, Config{Session: sess2, QueueDepth: 4, Workers: 1})
	defer ts2.Close()
	resp, body = postJSON(t, ts2.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "test", "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm characterize: HTTP %d: %s", resp.StatusCode, body)
	}

	getResp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(metrics)
	for _, want := range []string{
		"bioperfd_store_hits",
		"bioperfd_store_misses",
		"bioperfd_store_evictions",
		"bioperfd_store_write_errors 0",
		"bioperfd_store_entries",
		"bioperfd_store_bytes_on_disk",
		"bioperfd_session_profile_hits 1",
		"bioperfd_session_replay_runs 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	if regexp.MustCompile(`(?m)^bioperfd_store_hits 0$`).MatchString(text) {
		t.Fatalf("store hits not counted on warm serve:\n%s", text)
	}
	if st := sess2.Stats(); st.Runs != 0 {
		t.Fatalf("warm serve simulated: %+v", st)
	}
}

// TestMetricsWithoutStore keeps the no-store configuration clean: no
// bioperfd_store_* series are exported when no store is attached.
func TestMetricsWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: runner.NewSession(1)})
	defer ts.Close()
	getResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(metrics), "bioperfd_store_") {
		t.Fatalf("store series exported without a store:\n%s", metrics)
	}
	for _, want := range []string{"bioperfd_session_replay_runs", "bioperfd_session_profile_hits"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("%s counter missing:\n%s", want, metrics)
		}
	}
}

// TestMetricsExposition checks a full scrape, with a store and a
// fleet attached, against the text format's declarations: every family
// has exactly one HELP and one TYPE line, and every sample belongs to
// a declared family (a histogram's through its _bucket, _sum and
// _count series).
func TestMetricsExposition(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var srv *Server
	ts := delegatingServer(t, &srv)
	cl := cluster.New(cluster.Config{Self: ts.URL})
	srv = New(Config{Session: runner.NewSessionWithStore(1, st), Cluster: cl})
	resp, body := postJSON(t, ts.URL+"/v1/characterize",
		map[string]any{"program": "hmmsearch", "size": "test", "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize: HTTP %d: %s", resp.StatusCode, body)
	}

	helps := make(map[string]int)
	types := make(map[string]string)
	var samples []string
	for _, line := range strings.Split(strings.TrimSpace(scrapeMetrics(t, ts.URL)), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 4 && f[0] == "#" && f[1] == "HELP":
			helps[f[2]]++
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			if _, dup := types[f[2]]; dup {
				t.Errorf("family %s has two TYPE lines", f[2])
			}
			types[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment line %q", line)
		default:
			samples = append(samples, strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0])
		}
	}
	for name, n := range helps {
		if n != 1 || types[name] == "" {
			t.Errorf("family %s: %d HELP lines, TYPE %q", name, n, types[name])
		}
	}
	for name := range types {
		if helps[name] == 0 {
			t.Errorf("family %s has a TYPE but no HELP", name)
		}
	}
	if len(samples) == 0 {
		t.Fatal("scrape has no samples")
	}
	for _, name := range samples {
		if types[name] != "" {
			continue
		}
		histogram := false
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base, cut := strings.CutSuffix(name, suffix)
			histogram = histogram || cut && types[base] == "histogram"
		}
		if !histogram {
			t.Errorf("sample %s belongs to no declared family", name)
		}
	}
}
