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
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

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
