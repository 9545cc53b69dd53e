package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/cluster"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
	"bioperfload/internal/simpoint"
	"bioperfload/internal/store"
)

// delegatingServer starts an httptest listener whose URL is known
// before the Server behind it exists — cluster configs need peer URLs
// up front, but the Servers need the cluster configs. The *Server
// pointer is filled in after construction; no request arrives before
// that because the test drives all traffic.
func delegatingServer(t *testing.T, target **Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*target).Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func mustContain(t *testing.T, haystack, needle string) {
	t.Helper()
	if !strings.Contains(haystack, needle) {
		t.Fatalf("missing %q in:\n%s", needle, haystack)
	}
}

// TestFleetPeerServing is the cluster acceptance test at httptest
// scale: node A computes a characterization cold; node B — a separate
// server with a separate empty store, knowing A only through its
// cluster config — answers the same request from the peer tier with
// zero cold simulations and a byte-identical report, and its
// /metrics and /healthz expose the serve-source breakdown.
func TestFleetPeerServing(t *testing.T) {
	// Node A: plain single node with a store.
	stA, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	sessA := runner.NewSessionWithStore(1, stA)
	_, tsA := newTestServer(t, Config{Session: sessA, QueueDepth: 8, Workers: 1})

	// Node B: empty store, fleet view containing A.
	var srvB *Server
	tsB := delegatingServer(t, &srvB)
	clB := cluster.New(cluster.Config{Self: tsB.URL, Peers: []string{tsA.URL}})
	stB, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	sessB := runner.NewSessionWithStore(1, stB)
	sessB.SetRemote(clB)
	srvB = New(Config{Session: sessB, QueueDepth: 8, Workers: 1, Cluster: clB})

	req := map[string]any{"program": "hmmsearch", "size": "test", "wait": true}
	resp, body := postJSON(t, tsA.URL+"/v1/characterize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node A characterize: HTTP %d: %s", resp.StatusCode, body)
	}
	reportA := reportFromJobView(t, body)

	resp, body = postJSON(t, tsB.URL+"/v1/characterize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node B characterize: HTTP %d: %s", resp.StatusCode, body)
	}
	reportB := reportFromJobView(t, body)
	if reportA != reportB {
		t.Fatalf("peer-served report differs from locally computed one:\n--- A\n%s\n--- B\n%s", reportA, reportB)
	}

	st := sessB.Stats()
	if st.PeerHits != 1 || st.ColdChars != 0 || st.Runs != 0 {
		t.Fatalf("node B session stats %+v (want peer-served, zero simulation)", st)
	}

	metrics := scrapeMetrics(t, tsB.URL)
	mustContain(t, metrics, `bioperfd_serve_source_total{source="peer"} 1`)
	mustContain(t, metrics, `bioperfd_serve_source_total{source="cold"} 0`)
	mustContain(t, metrics, `bioperfd_peer_fetch_total{result="hit"} 1`)

	hresp, err := http.Get(tsB.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.ServeSources["peer"] != 1 {
		t.Fatalf("healthz serve_sources = %v", health.ServeSources)
	}
	if health.Cluster == nil || health.Cluster.Self != tsB.URL || len(health.Cluster.Members) != 2 {
		t.Fatalf("healthz cluster section = %+v", health.Cluster)
	}
	if health.Cluster.Stats.FetchHits != 1 {
		t.Fatalf("healthz cluster stats = %+v", health.Cluster.Stats)
	}
}

func reportFromJobView(t *testing.T, body []byte) string {
	t.Helper()
	var view struct {
		Result struct {
			Report string `json:"report"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Result.Report == "" {
		t.Fatalf("job view has no report: %s", body)
	}
	return view.Result.Report
}

// TestPeerWireProtocol exercises the artifact routes directly: PUT
// with honest checksums is admitted and served back byte-identical by
// key, no route serves it by content hash, PUT with lying checksums
// is rejected before it can touch the store, unknown keys 404.
func TestPeerWireProtocol(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess := runner.NewSessionWithStore(1, st)
	_, ts := newTestServer(t, Config{Session: sess, QueueDepth: 4, Workers: 1})

	// The body is opaque to the wire; it only needs the artifact
	// header the PUT checks (profile magic, layout 1, key hash).
	key := "prof|deadbeef|test"
	keySum := sha256.Sum256([]byte(key))
	payload := append(append([]byte("BPPF\x01\x00\x00\x00"), keySum[:]...), "artifact payload for the wire protocol test"...)
	sum := sha256.Sum256(payload)
	wantSHA := hex.EncodeToString(sum[:])
	wantCRC := strconv.FormatUint(uint64(crc32.ChecksumIEEE(payload)), 10)

	put := func(key string, body []byte, sha, crc string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut,
			ts.URL+"/v1/snapshots/"+url.PathEscape(key), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if sha != "" {
			req.Header.Set(cluster.HeaderSHA256, sha)
		}
		if crc != "" {
			req.Header.Set(cluster.HeaderCRC32, crc)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := put(key, payload, wantSHA, wantCRC); code != http.StatusNoContent {
		t.Fatalf("honest PUT: HTTP %d", code)
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("/v1/snapshots/" + url.PathEscape(key))
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("snapshot GET: HTTP %d, %d bytes", resp.StatusCode, len(body))
	}
	if got := resp.Header.Get(cluster.HeaderSHA256); got != wantSHA {
		t.Fatalf("snapshot GET sha header %q, want %q", got, wantSHA)
	}
	if got := resp.Header.Get(cluster.HeaderCRC32); got != wantCRC {
		t.Fatalf("snapshot GET crc header %q, want %q", got, wantCRC)
	}

	// Objects travel only by key: the stored object's content hash
	// addresses nothing on the wire, under the retired raw-object
	// route or the snapshot route.
	for _, route := range []string{"objects", "snapshots"} {
		resp, body = get("/v1/" + route + "/" + wantSHA)
		if resp.StatusCode != http.StatusNotFound || bytes.Contains(body, payload) {
			t.Fatalf("GET %s by content hash: HTTP %d, %d bytes", route, resp.StatusCode, len(body))
		}
	}

	resp, _ = get("/v1/snapshots/" + url.PathEscape("prof|unknown|test"))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown snapshot: HTTP %d", resp.StatusCode)
	}

	// Lying pushes must be rejected and must not be admitted.
	badKey := "prof|feedface|test"
	if code := put(badKey, payload, strings.Repeat("a", 64), wantCRC); code != http.StatusBadRequest {
		t.Fatalf("wrong-sha PUT: HTTP %d", code)
	}
	if code := put(badKey, payload, wantSHA, "12345"); code != http.StatusBadRequest {
		t.Fatalf("wrong-crc PUT: HTTP %d", code)
	}
	if code := put(badKey, payload, "", ""); code != http.StatusBadRequest {
		t.Fatalf("headerless PUT: HTTP %d", code)
	}
	if rc, _, ok := st.OpenObject(badKey); ok {
		rc.Close()
		t.Fatal("corrupt push was admitted to the store")
	}
}

// TestPeerPutForeignSnapshotNeverServed: a PUT is checked against the
// artifact header its key requires before it is admitted, so a
// well-formed snapshot computed under another key — the sampled one,
// pushed under the exact key — is refused with 400, the good exact
// snapshot stays, and the next request is served from the snapshot
// tier with no replay.
func TestPeerPutForeignSnapshotNeverServed(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := simpoint.Config{IntervalSize: 16384, WarmupEvents: 4096}
	// serve answers one exact characterization from a fresh session
	// over st, so every request starts from the store's tiers.
	serve := func() (string, runner.Stats) {
		t.Helper()
		sess := runner.NewSessionWithStore(1, st)
		sess.SetSimPoint(cfg)
		_, ts := newTestServer(t, Config{Session: sess, QueueDepth: 4, Workers: 1})
		resp, body := postJSON(t, ts.URL+"/v1/characterize",
			map[string]any{"program": "hmmsearch", "size": "test", "wait": true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("characterize: HTTP %d: %s", resp.StatusCode, body)
		}
		return reportFromJobView(t, body), sess.Stats()
	}

	cold, stats := serve()
	if stats.ColdChars != 1 {
		t.Fatalf("first request stats %+v, want cold", stats)
	}
	sampler := runner.NewSessionWithStore(1, st)
	sampler.SetSimPoint(cfg)
	if _, err := sampler.CharacterizeAccuracy(ctx, p, bio.SizeTest, runner.AccuracySampled); err != nil {
		t.Fatal(err)
	}
	key := "prof|" + runner.Fingerprint(p, false, compiler.Default()) + "|test"
	good, ok := st.GetBytes(key)
	if !ok {
		t.Fatal("no exact snapshot stored")
	}
	sampled, ok := st.GetBytes(key + "|sampled|" + sampler.SimPoint().Fingerprint())
	if !ok {
		t.Fatal("no sampled snapshot stored")
	}

	_, ts := newTestServer(t, Config{Session: runner.NewSessionWithStore(1, st), QueueDepth: 4, Workers: 1})
	req, err := http.NewRequest(http.MethodPut, ts.URL+cluster.SnapshotPath(key), bytes.NewReader(sampled))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(sampled)
	req.Header.Set(cluster.HeaderSHA256, hex.EncodeToString(sum[:]))
	req.Header.Set(cluster.HeaderCRC32, strconv.FormatUint(uint64(crc32.ChecksumIEEE(sampled)), 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT of sampled bytes under the exact key: HTTP %d, want 400", resp.StatusCode)
	}
	if got, ok := st.GetBytes(key); !ok || !bytes.Equal(got, good) {
		t.Fatal("the refused push touched the stored exact snapshot")
	}
	snap, stats := serve()
	if stats.ProfileHits != 1 || stats.ReplayRuns != 0 || stats.ColdChars != 0 {
		t.Fatalf("stats %+v, want the request served from the snapshot tier", stats)
	}
	if snap != cold {
		t.Fatalf("snapshot report differs from cold:\n--- cold\n%s\n--- snapshot\n%s", cold, snap)
	}
}

// TestShedLadder drives the three overload rungs in their fixed
// order. A saturated node S with peer P must (1) forward a request
// whose ring primary is P, marking the response; (2) degrade a
// full-fidelity request it owns itself to the fast tier on the shed
// reserve, marking the response; and (3) 429 only when the reserve is
// exhausted too.
func TestShedLadder(t *testing.T) {
	var srvP, srvS *Server
	tsP := delegatingServer(t, &srvP)
	tsS := delegatingServer(t, &srvS)

	clS := cluster.New(cluster.Config{Self: tsS.URL, Peers: []string{tsP.URL}})
	srvP = New(Config{Session: runner.NewSession(1), QueueDepth: 8, Workers: 1})
	srvS = New(Config{
		Session: runner.NewSession(1), QueueDepth: 1, Workers: 1, Cluster: clS,
	})

	// P answers instantly; S's workers block until released.
	srvP.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		return map[string]string{"answered_by": "P"}, nil
	}
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srvS.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		started <- struct{}{}
		<-release
		return nil, ctx.Err()
	}
	defer close(release)

	// Find full-fidelity evaluate keys on each side of the ring: one
	// owned by P (exercises forwarding) and two owned by S (exercise
	// degrade, then reject — forwarding never applies to S's own keys).
	var ownedByP, ownedByS []EvaluateRequest
	for _, p := range bio.All() {
		for _, plat := range platform.All() {
			spec := evalSpec{prog: p, plat: plat, sz: bio.SizeTest, fid: pipeline.FidelityFull}
			req := EvaluateRequest{Program: p.Name, Platform: plat.Name, Size: "test", Fidelity: "full"}
			if clS.Primary(evalKey(spec)) == tsP.URL {
				ownedByP = append(ownedByP, req)
			} else {
				ownedByS = append(ownedByS, req)
			}
		}
	}
	if len(ownedByP) < 1 || len(ownedByS) < 2 {
		t.Fatalf("ring split unusable: %d keys on P, %d on S", len(ownedByP), len(ownedByS))
	}

	// Saturate S: one job running (occupying the only worker), one
	// queued (filling QueueDepth=1). The second job is posted only once
	// the worker has taken the first off the queue, or it finds the
	// queue full.
	for i, prog := range []string{"hmmsearch", "fasta"} {
		resp, body := postJSON(t, tsS.URL+"/v1/characterize",
			map[string]any{"program": prog, "size": "test"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("saturation job %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			<-started // worker picked up job 1; job 2 will sit queued
		}
	}

	// Rung 1: forward. The request's primary is P, so S proxies it and
	// relays P's answer with the forwarded-to marker.
	fwd := ownedByP[0]
	fwd.Wait = true
	resp, body := postJSON(t, tsS.URL+"/v1/evaluate", fwd)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded evaluate: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderForwardedTo); got != tsP.URL {
		t.Fatalf("forwarded response lacks marker: %q (want %q)", got, tsP.URL)
	}
	if !strings.Contains(string(body), "answered_by") {
		t.Fatalf("forwarded response did not relay P's answer: %s", body)
	}

	// Rung 2: degrade. S owns this key, so forwarding is skipped; the
	// full-fidelity request is rewritten to the fast tier and admitted
	// on the shed reserve, with the degraded marker on the response.
	resp, body = postJSON(t, tsS.URL+"/v1/evaluate", ownedByS[0])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("degraded evaluate: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderDegraded); got != "fast" {
		t.Fatalf("degraded response lacks marker: %q (want \"fast\")", got)
	}

	// Rung 3: reject. Reserve slot is now occupied; the ladder has
	// nowhere left to go and the last resort is 429.
	resp, body = postJSON(t, tsS.URL+"/v1/evaluate", ownedByS[1])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted ladder: HTTP %d: %s (want 429)", resp.StatusCode, body)
	}

	metrics := scrapeMetrics(t, tsS.URL)
	mustContain(t, metrics, `bioperfd_shed_total{action="forward"} 1`)
	mustContain(t, metrics, `bioperfd_shed_total{action="degrade"} 1`)
	mustContain(t, metrics, `bioperfd_shed_total{action="reject"} 1`)
}

// TestPeerStallsMidBody: a peer that sends the transfer headers and
// half the artifact, then stalls, costs one fetch error bounded by the
// client timeout. The request falls through to a cold run with the
// golden report, nothing from the partial body reaches the store, and
// no goroutine outlives the fetch.
func TestPeerStallsMidBody(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	seed, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	prof, err := runner.NewSessionWithStore(1, seed).Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	golden := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof.Analysis, 6)
	key := "prof|" + runner.Fingerprint(p, false, compiler.Default()) + "|test"
	full, ok := seed.GetBytes(key)
	if !ok {
		t.Fatal("no snapshot stored")
	}

	stop := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		sum := sha256.Sum256(full)
		w.Header().Set("Content-Length", strconv.Itoa(len(full)))
		w.Header().Set(cluster.HeaderSHA256, hex.EncodeToString(sum[:]))
		w.Header().Set(cluster.HeaderCRC32, strconv.FormatUint(uint64(crc32.ChecksumIEEE(full)), 10))
		w.Write(full[:len(full)/2])
		w.(http.Flusher).Flush()
		select {
		case <-stop:
		case <-r.Context().Done():
		}
	}))
	defer peer.Close()
	defer close(stop)
	baseline := runtime.NumGoroutine()

	const timeout = 200 * time.Millisecond
	cl := cluster.New(cluster.Config{
		Self: "http://self.invalid", Peers: []string{peer.URL},
		Client: cluster.ClientConfig{Timeout: timeout},
	})
	t0 := time.Now()
	if _, err := cl.Client().FetchSnapshot(ctx, peer.URL, key); err == nil || errors.Is(err, cluster.ErrCorrupt) {
		t.Fatalf("fetch from a stalled peer: error %v, want a timeout", err)
	}
	if took := time.Since(t0); took > 3*timeout {
		t.Fatalf("fetch from a stalled peer took %v, timeout %v", took, timeout)
	}

	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess := runner.NewSessionWithStore(1, st)
	sess.SetRemote(cl)
	got, err := sess.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != "cold" || loadchar.RenderProfile(p.Name, bio.SizeTest.String(), got.Analysis, 6) != golden {
		t.Fatalf("served from %q with a report unlike the golden one", got.Source)
	}
	if cs := cl.Stats(); cs.FetchErrors != 1 || cs.FetchHits != 0 {
		t.Fatalf("cluster stats %+v, want one fetch error", cs)
	}
	if stored, ok := st.GetBytes(key); !ok || !bytes.Equal(stored, full) {
		t.Fatal("the store does not hold the cold run's whole artifact")
	}

	cl.Quiesce()
	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the stalled fetches, baseline %d", runtime.NumGoroutine(), baseline)
		}
	}
}
