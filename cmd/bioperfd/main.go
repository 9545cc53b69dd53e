// Command bioperfd serves the BioPerf characterization analyses over
// HTTP: every request is queued as a job of its own and executed on
// one shared runner.Session, whose memo runs each simulation once per
// key, so repeated requests answer from memoized artifacts.
//
//	bioperfd -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/characterize \
//	    -d '{"program":"hmmsearch","size":"classB","wait":true}'
//	curl -s -X POST localhost:8080/v1/evaluate \
//	    -d '{"program":"hmmsearch","platform":"alpha21264","fidelity":"full","wait":true}'
//
// Timing endpoints (/v1/evaluate, evaluate sweeps) default to the
// fast tier, the pipeline model on 1/32 sampled windows; pass
// "fidelity":"full" for the exact paper-reproduction run over the
// whole stream. Per-tier request counters appear on /metrics as
// bioperfd_timing_requests_total.
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
	"io"
	"log"
	"net"
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
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run parses args, serves until SIGINT or SIGTERM, drains, and returns
// the exit code: 0 after a drain on a signal, 1 when the store cannot
// open or the listener fails, 2 on bad usage. The store is closed on
// every path that opened it. Usage errors and logs go to stderr;
// the daemon writes nothing else.
func run(args []string, stderr io.Writer) int {
	logger := log.New(stderr, "bioperfd: ", 0)
	fs := flag.NewFlagSet("bioperfd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	jobs := fs.Int("j", 0, "session simulation workers (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue", 64, "job queue depth (full queue rejects with 429)")
	workers := fs.Int("workers", 4, "job executor pool width")
	jobTimeout := fs.Duration("job-timeout", 10*time.Minute, "server-wide per-job timeout cap")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain budget")
	storeDir := fs.String("store", "", "persistent artifact store directory (warm restarts replay recorded traces)")
	storeMax := fs.Int64("store-max", 0, "artifact store size cap in bytes (0 = unlimited, LRU eviction above)")
	selfURL := fs.String("self", "", "this node's advertised base URL (required with -peers)")
	peers := fs.String("peers", "", "comma-separated peer base URLs; joins a consistent-hash fleet")
	replicas := fs.Int("replicas", 1, "successors beyond the primary holding each artifact")
	shedPolicy := fs.String("shed-policy", "", "overload ladder rungs: forward,degrade (default), a subset, or none")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		logger.Printf(format, a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments: %v", fs.Args())
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"j", *jobs}, {"queue", *queueDepth}, {"workers", *workers}, {"replicas", *replicas}} {
		if c.v < 0 {
			return usage("-%s must not be negative, got %d", c.name, c.v)
		}
	}
	shed, err := service.ParseShedPolicy(*shedPolicy)
	if err != nil {
		return usage("%v", err)
	}
	var fleet *cluster.Cluster
	if *peers != "" {
		if *selfURL == "" {
			return usage("-peers requires -self (this node's advertised base URL)")
		}
		fleet = cluster.New(cluster.Config{
			Self:     *selfURL,
			Peers:    splitComma(*peers),
			Replicas: *replicas,
		})
	}

	var artifacts *store.Store
	if *storeDir != "" {
		artifacts, err = store.Open(*storeDir, *storeMax)
		if err != nil {
			logger.Printf("open store %s: %v", *storeDir, err)
			return 1
		}
		defer func() {
			if err := artifacts.Close(); err != nil {
				logger.Printf("store close: %v", err)
			}
		}()
		st := artifacts.Stats()
		logger.Printf("store %s: %d entries, %d bytes", *storeDir, st.Entries, st.BytesOnDisk)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	sess := runner.NewSessionWithStore(*jobs, artifacts)
	switch {
	case fleet != nil && artifacts != nil:
		// The peer tier caches fetched artifacts in the store; without
		// one there is nothing to serve peers or admit from them.
		sess.SetRemote(fleet)
	case fleet != nil:
		logger.Print("warning: -peers without -store disables the peer artifact tier (forwarding still works)")
	}
	svc := service.New(service.Config{
		Session:    sess,
		QueueDepth: *queueDepth,
		Workers:    *workers,
		JobTimeout: *jobTimeout,
		Cluster:    fleet,
		Shed:       shed,
	})

	httpSrv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Printf("listening on %s (queue=%d workers=%d session-jobs=%d)",
		ln.Addr(), *queueDepth, *workers, svc.Session().Jobs())
	if fleet != nil {
		logger.Printf("fleet: self=%s members=%d replicas=%d shed=%s",
			fleet.Self(), len(fleet.Members()), fleet.Replicas(), shed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	select {
	case err := <-errc:
		logger.Print(err)
		code = 1
	case <-ctx.Done():
	}

	logger.Printf("draining (budget %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := svc.Shutdown(dctx); err != nil {
		logger.Printf("queue drain: %v", err)
	}
	if fleet != nil {
		fleet.Quiesce()
	}
	logger.Print("bye")
	return code
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
