// Command bioperfd serves the BioPerf characterization analyses over
// HTTP: jobs are queued, deduplicated, and executed on one shared
// runner.Session, so repeated requests answer from memoized artifacts.
//
//	bioperfd -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/characterize \
//	    -d '{"program":"hmmsearch","size":"classB","wait":true}'
//	curl -s -X POST localhost:8080/v1/evaluate \
//	    -d '{"program":"hmmsearch","platform":"alpha21264","fidelity":"full","wait":true}'
//
// Timing endpoints (/v1/evaluate, evaluate sweeps) default to the
// fast scoreboard tier; pass "fidelity":"full" for the exact
// paper-reproduction model. Per-tier request counters appear on
// /metrics as bioperfd_timing_requests_total.
//
// With -store DIR the session is backed by a persistent artifact
// store: cold characterizations record their event traces, and a
// restarted daemon pointed at the same directory serves them again by
// replay — no recompilation, no re-simulation. Store hit/miss/eviction
// counters appear on /metrics.
//
// With -peers the daemon joins a fleet: a consistent-hash ring over
// canonical request keys decides which node owns each artifact,
// freshly computed snapshots replicate to -replicas successors, and a
// node missing an artifact pulls it from a peer instead of
// re-simulating (the "peer" serving tier, visible on /metrics as
// bioperfd_serve_source_total). A saturated node walks the
// -shed-policy overload ladder: forward the request to its ring
// primary, then degrade full-fidelity timing work to the fast tier,
// then 429.
//
//	bioperfd -addr :8081 -store /var/a -self http://127.0.0.1:8081 \
//	    -peers http://127.0.0.1:8082,http://127.0.0.1:8083
//
// With -bench PATH the daemon instead benchmarks itself — cold vs
// cached characterize latency over the loopback API, plus a 1-node vs
// 3-node fleet comparison — and writes the result as JSON (see
// BENCH_service.json).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/cluster"
	"bioperfload/internal/runner"
	"bioperfload/internal/service"
	"bioperfload/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bioperfd: ")
	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("j", 0, "session simulation workers (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 64, "job queue depth (full queue rejects with 429)")
	workers := flag.Int("workers", 4, "job executor pool width")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "server-wide per-job timeout cap")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain budget")
	bench := flag.String("bench", "", "benchmark the service against itself and write JSON to this path instead of serving")
	benchSize := flag.String("bench-size", "classB", "input size for -bench")
	storeDir := flag.String("store", "", "persistent artifact store directory (warm restarts replay recorded traces)")
	storeMax := flag.Int64("store-max", 0, "artifact store size cap in bytes (0 = unlimited, LRU eviction above)")
	selfURL := flag.String("self", "", "this node's advertised base URL (required with -peers)")
	peers := flag.String("peers", "", "comma-separated peer base URLs; joins a consistent-hash fleet")
	replicas := flag.Int("replicas", 1, "successors beyond the primary holding each artifact")
	shedPolicy := flag.String("shed-policy", "", "overload ladder rungs: forward,degrade (default), a subset, or none")
	flag.Parse()

	shed, err := service.ParseShedPolicy(*shedPolicy)
	if err != nil {
		log.Fatal(err)
	}
	var fleet *cluster.Cluster
	if *peers != "" {
		if *selfURL == "" {
			log.Fatal("-peers requires -self (this node's advertised base URL)")
		}
		fleet = cluster.New(cluster.Config{
			Self:     *selfURL,
			Peers:    splitComma(*peers),
			Replicas: *replicas,
		})
	}

	var artifacts *store.Store
	if *storeDir != "" {
		var err error
		artifacts, err = store.Open(*storeDir, *storeMax)
		if err != nil {
			log.Fatalf("open store %s: %v", *storeDir, err)
		}
		defer func() {
			if err := artifacts.Close(); err != nil {
				log.Printf("store close: %v", err)
			}
		}()
		st := artifacts.Stats()
		log.Printf("store %s: %d entries, %d bytes", *storeDir, st.Entries, st.BytesOnDisk)
	}

	sess := runner.NewSessionWithStore(*jobs, artifacts)
	switch {
	case fleet != nil && artifacts != nil:
		// The peer tier caches fetched artifacts in the store; without
		// one there is nothing to serve peers or admit from them.
		sess.SetRemote(fleet)
	case fleet != nil:
		log.Print("warning: -peers without -store disables the peer artifact tier (forwarding still works)")
	}
	svc := service.New(service.Config{
		Session:    sess,
		QueueDepth: *queueDepth,
		Workers:    *workers,
		JobTimeout: *jobTimeout,
		Cluster:    fleet,
		Shed:       shed,
	})

	if *bench != "" {
		if err := runBench(svc, *bench, *benchSize); err != nil {
			log.Fatal(err)
		}
		return
	}

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (queue=%d workers=%d session-jobs=%d)",
		*addr, *queueDepth, *workers, svc.Session().Jobs())
	if fleet != nil {
		log.Printf("fleet: self=%s members=%d replicas=%d shed=%s",
			fleet.Self(), len(fleet.Members()), fleet.Replicas(), shed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("draining (budget %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Shutdown(dctx); err != nil {
		log.Printf("queue drain: %v", err)
	}
	if fleet != nil {
		fleet.Quiesce()
	}
	log.Print("bye")
}

func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// --- self-benchmark (-bench) ---

// benchPhase summarizes one latency population.
type benchPhase struct {
	Requests  int     `json:"requests"`
	ReqPerSec float64 `json:"req_per_sec"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	MeanMS    float64 `json:"mean_ms"`
}

type benchFile struct {
	Tool      string       `json:"tool"`
	Size      string       `json:"size"`
	Programs  []string     `json:"programs"`
	Cold      benchPhase   `json:"cold"`
	Cached    benchPhase   `json:"cached"`
	Session   runner.Stats `json:"session"`
	Fleet     []fleetBench `json:"fleet,omitempty"`
	Generated string       `json:"generated"`
}

// fleetBench summarizes one fleet configuration of the 1-node vs
// 3-node comparison: the cold fill, then the best-of-N mixed phase
// where every node answers requests for every program — on a fleet,
// first touches of remotely computed artifacts are served by peer
// fetch instead of re-simulation.
type fleetBench struct {
	Nodes           int               `json:"nodes"`
	Replicas        int               `json:"replicas"`
	BestOf          int               `json:"best_of"`
	Cold            benchPhase        `json:"cold"`
	Mixed           benchPhase        `json:"mixed"`
	ServeSources    map[string]uint64 `json:"serve_sources"` // fleet-wide totals
	ColdSimulations uint64            `json:"cold_simulations"`
	PeerFetchHits   uint64            `json:"peer_fetch_hits"`
}

// runBench measures cold (first-ever, simulation-bound) and cached
// (artifact-hit) characterize latency through the real HTTP stack on
// a loopback listener, then writes the summary JSON to path.
func runBench(svc *service.Server, path, size string) error {
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	progs := bio.All()
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.Name
	}

	characterize := func(name string) (time.Duration, error) {
		body, _ := json.Marshal(map[string]any{
			"program": name, "size": size, "wait": true,
		})
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/characterize", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var view struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK || view.Status != "done" {
			return 0, fmt.Errorf("characterize %s: HTTP %d status=%q error=%q",
				name, resp.StatusCode, view.Status, view.Error)
		}
		return time.Since(start), nil
	}

	// Cold: every program's first characterize pays compile + simulate.
	log.Printf("bench: cold characterize, %d programs at %s", len(progs), size)
	coldStart := time.Now()
	cold := make([]time.Duration, 0, len(progs))
	for _, n := range names {
		d, err := characterize(n)
		if err != nil {
			return err
		}
		log.Printf("bench:   %-12s %8.1f ms", n, d.Seconds()*1e3)
		cold = append(cold, d)
	}
	coldWall := time.Since(coldStart)

	// Cached: the same requests now answer from the Session's
	// memoized artifacts; drive them concurrently for throughput.
	const perProg = 25
	total := perProg * len(names)
	log.Printf("bench: cached characterize, %d requests", total)
	cachedStart := time.Now()
	cached := make([]time.Duration, total)
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += 8 {
				d, err := characterize(names[i%len(names)])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				cached[i] = d
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	cachedWall := time.Since(cachedStart)

	// Fleet comparison: the same workload over 1 node and over a
	// 3-node fleet with peer fetch and replication.
	var fleets []fleetBench
	for _, nodes := range []int{1, 3} {
		fb, err := benchFleet(size, names, nodes, 1, 3)
		if err != nil {
			return err
		}
		fleets = append(fleets, fb)
		log.Printf("bench: fleet nodes=%d  mixed %7.2f req/s  p50 %8.3f ms  cold-sims %d  peer-hits %d",
			fb.Nodes, fb.Mixed.ReqPerSec, fb.Mixed.P50MS, fb.ColdSimulations, fb.PeerFetchHits)
	}

	out := benchFile{
		Tool:      "bioperfd -bench",
		Size:      size,
		Programs:  names,
		Cold:      summarize(cold, coldWall),
		Cached:    summarize(cached, cachedWall),
		Session:   svc.Session().Stats(),
		Fleet:     fleets,
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("bench: cold   %7.2f req/s  p50 %8.1f ms  p99 %8.1f ms",
		out.Cold.ReqPerSec, out.Cold.P50MS, out.Cold.P99MS)
	log.Printf("bench: cached %7.2f req/s  p50 %8.3f ms  p99 %8.3f ms",
		out.Cached.ReqPerSec, out.Cached.P50MS, out.Cached.P99MS)
	log.Printf("bench: wrote %s", path)
	return nil
}

// benchFleet boots `nodes` in-process daemons (own store, own
// session, full fleet wiring over loopback HTTP), cold-fills the
// programs round-robin across the fleet, then measures the mixed
// phase — every program requested on every node, repeated — best of
// `bestOf` runs. On a fleet the first touch of a program computed
// elsewhere is answered by peer fetch; cold_simulations staying at
// len(programs) is the point of the exercise.
func benchFleet(size string, programs []string, nodes, replicas, bestOf int) (fleetBench, error) {
	servers := make([]*service.Server, nodes)
	listeners := make([]*httptest.Server, nodes)
	clusters := make([]*cluster.Cluster, nodes)
	sessions := make([]*runner.Session, nodes)
	stores := make([]*store.Store, nodes)
	defer func() {
		for _, c := range clusters {
			if c != nil {
				c.Quiesce()
			}
		}
		for _, ts := range listeners {
			if ts != nil {
				ts.Close()
			}
		}
		for _, st := range stores {
			if st != nil {
				st.Close()
			}
		}
	}()

	// Listener URLs must exist before the cluster configs that
	// reference them, so each listener delegates to a server slot
	// filled in below.
	urls := make([]string, nodes)
	for i := range listeners {
		i := i
		listeners[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			servers[i].Handler().ServeHTTP(w, r)
		}))
		urls[i] = listeners[i].URL
	}
	for i := range servers {
		dir, err := os.MkdirTemp("", "bioperfd-fleet-")
		if err != nil {
			return fleetBench{}, err
		}
		defer os.RemoveAll(dir)
		stores[i], err = store.Open(dir, 0)
		if err != nil {
			return fleetBench{}, err
		}
		sessions[i] = runner.NewSessionWithStore(0, stores[i])
		if nodes > 1 {
			var others []string
			for j, u := range urls {
				if j != i {
					others = append(others, u)
				}
			}
			clusters[i] = cluster.New(cluster.Config{Self: urls[i], Peers: others, Replicas: replicas})
			sessions[i].SetRemote(clusters[i])
		}
		servers[i] = service.New(service.Config{
			Session: sessions[i], QueueDepth: 64, Workers: 4,
			Cluster: clusters[i], Shed: service.ShedPolicy{Forward: true, Degrade: true},
		})
	}

	characterize := func(node int, name string) (time.Duration, error) {
		body, _ := json.Marshal(map[string]any{"program": name, "size": size, "wait": true})
		start := time.Now()
		resp, err := http.Post(urls[node]+"/v1/characterize", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var view struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK || view.Status != "done" {
			return 0, fmt.Errorf("fleet characterize %s on node %d: HTTP %d status=%q error=%q",
				name, node, resp.StatusCode, view.Status, view.Error)
		}
		return time.Since(start), nil
	}

	// Cold fill: each program computed exactly once, scattered across
	// the fleet.
	log.Printf("bench: fleet nodes=%d cold fill, %d programs at %s", nodes, len(programs), size)
	coldStart := time.Now()
	cold := make([]time.Duration, 0, len(programs))
	for i, name := range programs {
		d, err := characterize(i%nodes, name)
		if err != nil {
			return fleetBench{}, err
		}
		cold = append(cold, d)
	}
	coldWall := time.Since(coldStart)
	for _, c := range clusters {
		if c != nil {
			c.Quiesce() // replication settled before the measured phase
		}
	}

	// Mixed phase: every (node, program) pair, several rounds, 8-way
	// concurrent — on a fleet most first touches are peer fetches.
	const rounds = 5
	total := rounds * nodes * len(programs)
	best := fleetBench{Nodes: nodes, Replicas: replicas, BestOf: bestOf, Cold: summarize(cold, coldWall)}
	if nodes == 1 {
		best.Replicas = 0
	}
	for run := 0; run < bestOf; run++ {
		durations := make([]time.Duration, total)
		start := time.Now()
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < total; i += 8 {
					d, err := characterize(i%nodes, programs[(i/nodes)%len(programs)])
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					durations[i] = d
				}
			}(w)
		}
		wg.Wait()
		if firstErr != nil {
			return fleetBench{}, firstErr
		}
		phase := summarize(durations, time.Since(start))
		if run == 0 || phase.ReqPerSec > best.Mixed.ReqPerSec {
			best.Mixed = phase
		}
	}

	best.ServeSources = map[string]uint64{}
	for i, sess := range sessions {
		st := sess.Stats()
		best.ServeSources["snapshot"] += st.ProfileHits
		best.ServeSources["replay"] += st.ReplayRuns
		best.ServeSources["peer"] += st.PeerHits
		best.ServeSources["cold"] += st.ColdChars
		best.ColdSimulations += st.ColdChars
		if clusters[i] != nil {
			best.PeerFetchHits += clusters[i].Stats().FetchHits
		}
	}
	return best, nil
}

func summarize(ds []time.Duration, wall time.Duration) benchPhase {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i].Seconds() * 1e3
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return benchPhase{
		Requests:  len(sorted),
		ReqPerSec: float64(len(sorted)) / wall.Seconds(),
		P50MS:     pct(0.50),
		P99MS:     pct(0.99),
		MeanMS:    sum.Seconds() * 1e3 / float64(len(sorted)),
	}
}
