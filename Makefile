# Mirrors .github/workflows/ci.yml so local runs and CI are identical.

GO ?= go

# Packages with concurrency-sensitive code; the race job scopes to these
# to keep CI fast (the full suite still runs race-free in `test`).
RACE_PKGS = ./internal/transport/... ./internal/p2p/...

.PHONY: all build test race benchmark-check bench bench-replication bench-antientropy bench-stream bench-wal bench-transport bench-routing fmt fmt-check vet examples conformance soak soak-smoke soak-docker ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The benchmark harness is a nested module (benchmark/go.mod), invisible
# to `go vet ./...` and `go test ./...` at the root: its smoke test boots
# toy rings and asserts the per-layer metrics a routing or transport change
# can silently zero (p2p.handle_find_owner_us, transport.calls_per_op).
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Examples and commands must stay vet-clean and buildable: they are the
# documentation of the public Client API.
examples:
	$(GO) vet ./examples/... ./cmd/...
	$(GO) build ./examples/... ./cmd/...

# Cross-backend conformance: the identical scenario table against the
# simulator Client and the live Client (in-memory fabric and TCP), the
# crash-durability contract (write with r=3, kill the owner, lose
# nothing), the divergence-heal contract (corrupt a replica, anti-entropy
# repairs exactly the divergence, deletes stay deleted), the write-concern
# contract (w=2 succeeds past a dead replica, w=3 fails with honest ack
# counts), the read-repair contract (a fallback read heals a stale owner
# by exactly the divergence), the ring-size estimate on a ring past
# the old 128-peer walk cap, the mid-scan churn contract (a paged
# scan rides out its serving peer's crash with no loss or duplication),
# and the restart-durability contract (crash a durable owner mid-WAL,
# restart it on the same data dir, lose no acked write, resurrect no
# delete, re-ship only the downtime delta), and the cache stale-safety
# contract (route + hot-key caches stay correct across an arc-moving
# join and an owner crash on all three backends) — race detector on. The
# faulted variant (TestFaultedRing) re-runs the scenario table on both
# live fabrics under a seeded 5%-drop/20ms-jitter fault plan plus a
# partition-heal case, the overload suite pins the p2p contract that
# a shedding peer is retried once and never evicted, and the carried-op
# suite (TestCarried*) pins that an op riding the walk's last hop costs
# the hops alone, runs exactly once across a splice, and — a write — is
# never re-sent after a lost reply, and that a step churn routes back
# through the entry node is as free as the first. The transport
# package contributes the wire-level contracts: codec negotiation (incl.
# a mixed binary/JSON ring and legacy no-handshake peers), TLS round
# trips, overload shedding (saturate past the in-flight cap: typed
# ErrOverloaded, bounded goroutines, recovery), and the call path's own —
# resident handler workers (TestWorker*: sequential traffic starts at most
# two, a blocked handler delays nobody, parked ones retire on the reaper
# tick and on Close) and the caller-side flush (TestFlush*, TestCancelled*,
# TestWriteFailure*, TestLargeFrame*, TestWriterBounds*: one write per
# lone call, shared writes under concurrency, nothing sent for a context
# already done, one break and sent=true on a write error, big frames not
# pinned, pending frames capped against a peer that stops reading).
conformance:
	$(GO) test -race -run 'TestConformance|TestFaultedRing|TestCrashDurability|TestDivergenceHeal|TestWriteConcern|TestReadRepair|TestRingSizeEstimate|TestLookupCancelled|TestRangeQueryCancelled|TestScanChurn|TestRestartDurability|TestDeleteSurvivesRestart|TestCacheStaleSafety' .
	$(GO) test -race -run 'TestConformance|TestCrashDurability|TestDivergenceHeal|TestWriteConcern|TestReadRepair|TestRingSizeEstimate|TestLookupCancelled|TestRangeQueryCancelled|TestScanChurn|TestRestartDurability|TestDeleteSurvivesRestart|TestOverloadedPeerStaysLinked|TestOverloadRetryOnce|TestOverloadSurfacesTypedError|TestRouteCache|TestHotKeyCache|TestAlpha|TestCarried|TestInProcessDispatchCopies' ./internal/p2p/
	$(GO) test -race -run 'TestCodecNegotiation|TestLegacyFramesAccepted|TestTLS|TestOverloadShedding|TestClientInflightCapOverload|TestMuxCallTimeoutDoesNotPoisonPool|TestWorker|TestFlush|TestCancelled|TestWriteFailure|TestLargeFrame|TestWriterBounds' ./internal/transport/

# Replication bench smoke: the replicated write path compiles and runs on
# both backends, including the ack-awaited write-concern ladder (w=1 vs
# quorum vs all) whose overhead CI tracks in bench.txt.
bench-replication:
	$(GO) test -run=NONE -bench='PutReplicated|PutWriteConcern' -benchtime=1x .

# Anti-entropy bench smoke: the arc-digest maintenance cost (incremental vs
# rebuild) and one digest-sync repair pass over a live chain.
bench-antientropy:
	$(GO) test -run=NONE -bench='ArcDigest' -benchtime=1x ./internal/storage/
	$(GO) test -run=NONE -bench='AntiEntropySync' -benchtime=1x ./internal/p2p/

# Streaming bench smoke: the paged Scan iterator end to end (1k and 100k
# item arcs) and a 16 MiB blob round trip through a live cluster.
bench-stream:
	$(GO) test -run=NONE -bench='BenchmarkScan$$|BenchmarkBlobRoundTrip' -benchtime=1x . | tee bench-stream.txt

# Where the JSON renderings of the smoke targets below land. They run at
# -benchtime=1x (iterations: 1 — a shape check, not a measurement), so by
# default they write beside the other build leftovers and never over a
# committed BENCH_*.json; regenerate a committed artifact with a real
# bench time and BENCH_OUT=. (e.g. `make bench-routing BENCHTIME=2s
# BENCH_OUT=.`).
BENCH_OUT ?= .bench_build
BENCHTIME ?= 1x

$(BENCH_OUT):
	mkdir -p $(BENCH_OUT)

# Durability bench smoke: WAL append cost under each fsync policy plus
# cold recovery (snapshot load + replay) at 10k and 100k keys; the JSON
# rendering lands in the CI artifact (the raw bench-wal.txt log is
# retired — BENCH_*.json is the interchange format).
bench-wal: | $(BENCH_OUT)
	$(GO) test -run=NONE -bench='BenchmarkWALAppend|BenchmarkRecovery' -benchtime=$(BENCHTIME) ./internal/wal/ | $(GO) run ./cmd/oscar-benchjson -o $(BENCH_OUT)/BENCH_durability.json

# Transport bench: dial-per-call vs pooled mux, binary vs JSON codec at
# 1/8/64 in-flight, TLS on/off, the frame-encode micro-bench, and the
# live-cluster put+get headline per codec. The committed
# BENCH_transport.json is this target's JSON rendering at BENCHTIME=1s
# (the raw txt log is retired).
bench-transport: | $(BENCH_OUT)
	( $(GO) test -run=NONE -bench='BenchmarkFrameEncode|BenchmarkDialPerCall|BenchmarkPooledMux' -benchtime=$(BENCHTIME) ./internal/transport/ && \
	  $(GO) test -run=NONE -bench='BenchmarkLiveClusterPutGetTCP' -benchtime=$(BENCHTIME) . ) | $(GO) run ./cmd/oscar-benchjson -o $(BENCH_OUT)/BENCH_transport.json

# Routing bench: a Zipf hot-key workload against a live in-memory cluster
# after a crash, comparing α=1 with caches off against α=2/α=3 with the
# route and hot-key caches on — lookup hops per op, p50/p95 latency, and
# the owner-vs-cache serve ratio. The committed BENCH_routing.json is this
# target's JSON rendering at BENCHTIME=2s.
bench-routing: | $(BENCH_OUT)
	$(GO) test -run=NONE -bench='BenchmarkRoutingZipf' -benchtime=$(BENCHTIME) -timeout 20m . | $(GO) run ./cmd/oscar-benchjson -o $(BENCH_OUT)/BENCH_routing.json

# Bench smoke: compile and run every benchmark once (shape check, not a
# measurement). Full measurements: `go test -bench=. -benchtime=2s ./...`.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./... | tee bench.txt

SOAK_SEED ?= 1
SOAK_NODES ?= 49

# Full-length in-process soak: a 12-node cluster under a seeded fault
# schedule (drops, jitter, slow nodes, an asymmetric partition) and churn
# (flash-crowd join, correlated crash of adjacent arc owners, rolling
# WAL restarts), loaded with a mixed Zipf put/get/delete/scan workload.
# Teardown asserts no w-acked write is lost and the ring reconverges;
# the committed BENCH_soak.json is this target's output.
soak:
	$(GO) run ./cmd/oscar-soak -seed $(SOAK_SEED) -o BENCH_soak.json

# Short race-enabled soak for PR CI: the same schedule compressed — the
# race detector rides the full fault/churn/verify path on every PR.
soak-smoke:
	$(GO) run -race ./cmd/oscar-soak -seed $(SOAK_SEED) -duration 6s -rate 150 -keys 240 -o BENCH_soak_smoke.json

# Containerized soak: a ~50-process fleet (1 seed + N nodes, each with
# seeded per-node fault injection) loaded over real TCP by the soak
# client. Exits with the soak's verdict; the report lands in ./soak-out.
soak-docker:
	docker compose --profile soak up --build --scale node=$(SOAK_NODES) --exit-code-from soak
	docker compose --profile soak down -v

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

ci: fmt-check vet build test benchmark-check examples race conformance bench-replication bench-antientropy bench-stream bench-wal bench-transport bench-routing bench
