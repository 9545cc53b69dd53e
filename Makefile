GO ?= go

.PHONY: check fmt-check vet build test bench-test race race-concurrent smoke fuzz-smoke serve-smoke cluster-smoke experiments experiments-check bench validate-timing sweep-smoke netlines

# check is the full gate: formatting, static analysis, build, the
# race-enabled test suite, the benchmark module's own vet and tests,
# and an end-to-end experiments smoke run.
check: fmt-check vet build race bench-test smoke

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-test vets and tests the benchmark module (bench/), which the
# root `go test ./...` skips: it is a separate module, and its traced
# cold rebuild drives loadchar and the trace writer from their public
# parts.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# race-concurrent stresses the concurrency-heavy packages — shard
# workers and pass merges, decode pools and slab recycling, the job
# queue and event streams, the session memo that identical jobs meet
# at, the machine's page and sink-buffer pools and bio's per-(program,
# size) input memo — with repeated runs under the race detector.
# -timeout covers three race-instrumented repetitions of the runner
# suite, which exceed go test's 10-minute default on a single core.
race-concurrent:
	$(GO) test -race -count 3 -timeout 30m ./internal/loadchar ./internal/trace ./internal/service ./internal/runner ./internal/cluster ./internal/simpoint ./internal/bpred ./internal/cache ./internal/bio ./internal/sim

# smoke regenerates every table and figure at test size through the
# parallel session, proving the whole pipeline end to end. It then
# runs the full-tier sweep grid and ablations at -j 1 and -j 4 and
# diffs their stdout: the grouped timing runs (runner EvaluateAll)
# must give byte-identical tables in the same order at any pool width.
# Last, it runs every benchmark under internal/ once, so a b.Fatal in
# one fails the gate (BenchmarkModelMixed reports the timing model's
# ns/event; ~7 s on a 2-vCPU host with a warm build cache).
smoke:
	$(GO) run ./cmd/experiments -size test -timing test > /dev/null
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	for j in 1 4; do \
		$(GO) run ./cmd/experiments -size test -timing test -fidelity full \
			-sweep -ablations -j $$j > $$d/j$$j.txt; \
	done; \
	diff $$d/j1.txt $$d/j4.txt \
		|| { echo "smoke: full-tier output differs between -j 1 and -j 4" >&2; exit 1; }
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# fuzz-smoke gives each fuzzer a short budget on top of its seeds and
# checked-in corpus (which always run as part of `go test`): FuzzCodec
# for arbitrary chunk payloads through the one chunk decoder (column
# decode, re-encode, re-decode) and event-stream round trips through
# whole traces,
# FuzzIndexedReader for arbitrary whole files through every read path,
# FuzzDecodeEvalArtifact for arbitrary bytes as a stored timing result,
# FuzzDecodeProfileArtifact for arbitrary bytes through the snapshot
# tier's decode, restore and render, FuzzStoreIndex for arbitrary
# index.json bytes over a store directory, FuzzVerifyBody for arbitrary
# artifact bodies against arbitrary transfer checksum headers,
# FuzzRequestBodies for arbitrary request JSON on bioperfd's three job
# routes, FuzzCacheMatchesReference for arbitrary address and store
# streams through the cache against its naive LRU reference, FuzzParse
# for arbitrary bytes through the MiniC parser's streamed token window
# against LexAll. TestFuzzSmokeCoversEveryFuzzer (root package) fails
# when a Fuzz function under internal/ is missing from this rule.
# Minimizing a new input is capped at 100 runs: left at its 60 s
# default, minimizing one multi-kilobyte input outlasts the budget, and
# a fuzzer stalls after its first find (on a 2-vCPU host,
# FuzzDecodeProfileArtifact ran 11 inputs in 10 s and FuzzCodec 120).
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCodec$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzIndexedReader$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/runner -run '^$$' -fuzz '^FuzzDecodeEvalArtifact$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/runner -run '^$$' -fuzz '^FuzzDecodeProfileArtifact$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzStoreIndex$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzVerifyBody$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzRequestBodies$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzCacheMatchesReference$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/minic -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 100x

# validate-timing asserts the fast (1/32 sampled) tier reproduces the
# full tier's speedup and cross-platform ratios within the checked-in
# per-program tolerances (internal/scoreboard/validate). Runs at test
# size by default; VALIDATE_SIZE=classB is the paper-scale check.
VALIDATE_SIZE ?= test
validate-timing:
	$(GO) run ./cmd/bioperf validate-timing -size $(VALIDATE_SIZE)

# sweep-smoke runs the platform-parameter sweep grid end to end at
# test size on the fast tier.
sweep-smoke:
	$(GO) run ./cmd/experiments -size test -timing test -only sweep > /dev/null

# experiments reproduces the paper-scale artifacts. The canonical
# tables use the full-tier model (byte-identical to the paper
# reproduction), and the sweep grid and causal ablations are appended
# to the text artifact. Performance is measured by bench/run.sh.
EXPERIMENTS_OUT ?= experiments_classB.txt
experiments:
	$(GO) run ./cmd/experiments -size classB -timing classB -fidelity full \
		-sweep -ablations > $(EXPERIMENTS_OUT)

# experiments-check runs the experiments recipe into a temp file and
# diffs it against the checked-in experiments_classB.txt, so a change
# that moves any classB number or table fails (~55 s on a 2-vCPU host).
experiments-check:
	@set -e; f=$$(mktemp); trap 'rm -f "$$f"' EXIT; \
	$(MAKE) --no-print-directory experiments EXPERIMENTS_OUT=$$f; \
	diff experiments_classB.txt $$f \
		|| { echo "experiments-check: output differs from experiments_classB.txt" >&2; exit 1; }

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# serve-smoke proves the bioperfd daemon end to end: boot with a
# persistent artifact store, health check, one characterize and a fast
# and a full evaluate over the API, graceful SIGTERM drain — then
# restart on the same store and show the second characterize and both
# evaluates are served from persisted artifacts without re-simulating
# (store hits, profile hits and evaluate store sources move on
# /metrics, and the session runs nothing).
SMOKE_ADDR ?= 127.0.0.1:18980
serve-smoke:
	$(GO) build -o bioperfd.smoke ./cmd/bioperfd
	@set -e; store=$$(mktemp -d); \
	./bioperfd.smoke -addr $(SMOKE_ADDR) -store $$store & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf bioperfd.smoke "$$store"' EXIT; \
	ok=; for i in $$(seq 1 100); do \
		curl -sf http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1 && ok=1 && break; \
		sleep 0.1; \
	done; \
	test -n "$$ok" || { echo "serve-smoke: daemon never became healthy" >&2; exit 1; }; \
	curl -sf http://$(SMOKE_ADDR)/healthz; \
	curl -sf -X POST http://$(SMOKE_ADDR)/v1/characterize \
		-d '{"program":"hmmsearch","size":"test","wait":true}' \
		| grep -q '"status": "done"' \
		|| { echo "serve-smoke: characterize did not finish" >&2; exit 1; }; \
	curl -sf -X POST http://$(SMOKE_ADDR)/v1/evaluate \
		-d '{"program":"hmmsearch","platform":"alpha21264","size":"test","wait":true}' \
		| grep -q '"fidelity": "fast"' \
		|| { echo "serve-smoke: fast-tier evaluate did not finish" >&2; exit 1; }; \
	curl -sf -X POST http://$(SMOKE_ADDR)/v1/evaluate \
		-d '{"program":"hmmsearch","platform":"alpha21264","size":"test","fidelity":"full","wait":true}' \
		| grep -q '"fidelity": "full"' \
		|| { echo "serve-smoke: full-tier evaluate did not finish" >&2; exit 1; }; \
	curl -sf http://$(SMOKE_ADDR)/metrics | grep -q bioperfd_http_requests_total \
		|| { echo "serve-smoke: metrics missing" >&2; exit 1; }; \
	curl -sf http://$(SMOKE_ADDR)/metrics \
		| grep -q 'bioperfd_timing_requests_total{kind="evaluate",fidelity="fast"} 1' \
		|| { echo "serve-smoke: fast-tier counter missing" >&2; exit 1; }; \
	curl -sf http://$(SMOKE_ADDR)/metrics \
		| grep -q 'bioperfd_timing_requests_total{kind="evaluate",fidelity="full"} 1' \
		|| { echo "serve-smoke: full-tier counter missing" >&2; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	./bioperfd.smoke -addr $(SMOKE_ADDR) -store $$store & pid=$$!; \
	ok=; for i in $$(seq 1 100); do \
		curl -sf http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1 && ok=1 && break; \
		sleep 0.1; \
	done; \
	test -n "$$ok" || { echo "serve-smoke: restarted daemon never became healthy" >&2; exit 1; }; \
	curl -sf -X POST http://$(SMOKE_ADDR)/v1/characterize \
		-d '{"program":"hmmsearch","size":"test","wait":true}' \
		| grep -q '"status": "done"' \
		|| { echo "serve-smoke: warm characterize did not finish" >&2; exit 1; }; \
	curl -sf http://$(SMOKE_ADDR)/metrics | grep -Eq 'bioperfd_store_hits [1-9]' \
		|| { echo "serve-smoke: restart did not hit the store" >&2; exit 1; }; \
	curl -sf http://$(SMOKE_ADDR)/metrics | grep -Eq 'bioperfd_session_(profile_hits|replay_runs) [1-9]' \
		|| { echo "serve-smoke: warm characterize was not served from the store" >&2; exit 1; }; \
	curl -sf -X POST http://$(SMOKE_ADDR)/v1/evaluate \
		-d '{"program":"hmmsearch","platform":"alpha21264","size":"test","wait":true}' \
		| grep -q '"source": "store"' \
		|| { echo "serve-smoke: warm fast-tier evaluate was not served from the store" >&2; exit 1; }; \
	curl -sf -X POST http://$(SMOKE_ADDR)/v1/evaluate \
		-d '{"program":"hmmsearch","platform":"alpha21264","size":"test","fidelity":"full","wait":true}' \
		| grep -q '"source": "store"' \
		|| { echo "serve-smoke: warm full-tier evaluate was not served from the store" >&2; exit 1; }; \
	curl -sf http://$(SMOKE_ADDR)/metrics | grep -q 'bioperfd_evaluate_source_total{source="store"} 2' \
		|| { echo "serve-smoke: evaluate store hits not counted" >&2; exit 1; }; \
	curl -sf http://$(SMOKE_ADDR)/metrics | grep -q 'bioperfd_session_runs 0' \
		|| { echo "serve-smoke: restarted daemon ran a simulation" >&2; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	echo "serve-smoke: OK (cold boot + warm restart from store)"

# cluster-smoke proves the fleet end to end: boot three daemons with
# separate stores joined by -peers, compute one characterization and
# one evaluation cold on node 1, then show nodes 2 and 3 answer the
# same requests with ZERO simulations of their own — served through
# the peer artifact tier (or a replicated artifact), asserted on each
# node's /metrics counters. -replicas 0 keeps at most one pushed copy
# of each, so at least one of the two warm nodes must fetch each from
# a peer.
CLUSTER_ADDR1 ?= 127.0.0.1:18981
CLUSTER_ADDR2 ?= 127.0.0.1:18982
CLUSTER_ADDR3 ?= 127.0.0.1:18983
cluster-smoke:
	$(GO) build -o bioperfd.cluster ./cmd/bioperfd
	@set -e; s1=$$(mktemp -d); s2=$$(mktemp -d); s3=$$(mktemp -d); \
	u1=http://$(CLUSTER_ADDR1); u2=http://$(CLUSTER_ADDR2); u3=http://$(CLUSTER_ADDR3); \
	./bioperfd.cluster -addr $(CLUSTER_ADDR1) -store $$s1 -self $$u1 -peers $$u2,$$u3 -replicas 0 & p1=$$!; \
	./bioperfd.cluster -addr $(CLUSTER_ADDR2) -store $$s2 -self $$u2 -peers $$u1,$$u3 -replicas 0 & p2=$$!; \
	./bioperfd.cluster -addr $(CLUSTER_ADDR3) -store $$s3 -self $$u3 -peers $$u1,$$u2 -replicas 0 & p3=$$!; \
	trap 'kill $$p1 $$p2 $$p3 2>/dev/null || true; rm -rf bioperfd.cluster "$$s1" "$$s2" "$$s3"' EXIT; \
	for u in $$u1 $$u2 $$u3; do \
		ok=; for i in $$(seq 1 100); do \
			curl -sf $$u/healthz >/dev/null 2>&1 && ok=1 && break; \
			sleep 0.1; \
		done; \
		test -n "$$ok" || { echo "cluster-smoke: $$u never became healthy" >&2; exit 1; }; \
	done; \
	curl -sf -X POST $$u1/v1/characterize \
		-d '{"program":"hmmsearch","size":"test","wait":true}' \
		| grep -q '"status": "done"' \
		|| { echo "cluster-smoke: cold characterize on node 1 failed" >&2; exit 1; }; \
	curl -sf $$u1/metrics | grep -q 'bioperfd_serve_source_total{source="cold"} 1' \
		|| { echo "cluster-smoke: node 1 did not count a cold characterize" >&2; exit 1; }; \
	curl -sf -X POST $$u1/v1/evaluate \
		-d '{"program":"hmmsearch","platform":"alpha21264","size":"test","wait":true}' \
		| grep -q '"source": "cold"' \
		|| { echo "cluster-smoke: cold evaluate on node 1 failed" >&2; exit 1; }; \
	peer=0; evpeer=0; \
	for u in $$u2 $$u3; do \
		curl -sf -X POST $$u/v1/characterize \
			-d '{"program":"hmmsearch","size":"test","wait":true}' \
			| grep -q '"status": "done"' \
			|| { echo "cluster-smoke: warm characterize on $$u failed" >&2; exit 1; }; \
		curl -sf $$u/metrics | grep -q 'bioperfd_serve_source_total{source="cold"} 0' \
			|| { echo "cluster-smoke: $$u re-simulated instead of serving warm" >&2; exit 1; }; \
		curl -sf -X POST $$u/v1/evaluate \
			-d '{"program":"hmmsearch","platform":"alpha21264","size":"test","wait":true}' \
			| grep -q '"status": "done"' \
			|| { echo "cluster-smoke: warm evaluate on $$u failed" >&2; exit 1; }; \
		curl -sf $$u/metrics | grep -q 'bioperfd_session_runs 0' \
			|| { echo "cluster-smoke: $$u ran a simulation" >&2; exit 1; }; \
		n=$$(curl -sf $$u/metrics | sed -n 's/^bioperfd_serve_source_total{source="peer"} //p'); \
		peer=$$((peer+n)); \
		n=$$(curl -sf $$u/metrics | sed -n 's/^bioperfd_evaluate_source_total{source="peer"} //p'); \
		evpeer=$$((evpeer+n)); \
	done; \
	test "$$peer" -ge 1 \
		|| { echo "cluster-smoke: no node served from the peer tier" >&2; exit 1; }; \
	test "$$evpeer" -ge 1 \
		|| { echo "cluster-smoke: no node served an evaluation from the peer tier" >&2; exit 1; }; \
	curl -sf $$u2/healthz | grep -q '"cluster"' \
		|| { echo "cluster-smoke: healthz lacks the cluster section" >&2; exit 1; }; \
	kill -TERM $$p1 $$p2 $$p3; wait $$p1 $$p2 $$p3 || true; \
	echo "cluster-smoke: OK (cold on node 1, peer-served on nodes 2 and 3, $$peer characterize and $$evpeer evaluate peer fetches)"

# netlines prints the Go lines added and removed since BASE (default
# HEAD), from git diff --numstat against the working tree, outside
# bench/: first for non-test files, then for _test.go files. New files
# count once they are staged (git add).
BASE ?= HEAD
netlines:
	@git diff --numstat --no-renames $(BASE) -- '*.go' ':(exclude)bench' | awk ' \
		$$3 ~ /_test\.go$$/ { ta += $$1; tr += $$2; next } \
		{ a += $$1; r += $$2 } \
		END { printf "non-test Go outside bench/: +%d -%d = %+d\n", a, r, a - r; \
			printf "tests outside bench/: +%d -%d = %+d\n", ta, tr, ta - tr }'
