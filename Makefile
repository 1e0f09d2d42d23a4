# Mirrors .github/workflows/ci.yml so local runs and CI are identical.

GO ?= go

# Packages with concurrency-sensitive code; the race job scopes to these
# to keep CI fast (the full suite still runs race-free in `test`).
RACE_PKGS = ./internal/transport/... ./internal/p2p/... ./internal/core/... ./internal/sampling/... ./internal/resident/...

.PHONY: all build test race fuzz-smoke benchmark-check bench paper fmt fmt-check vet examples conformance soak soak-smoke soak-docker ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full output is also kept in race.txt (CI uploads it when the job
# fails); pipefail keeps the test's exit status through the tee.
race: SHELL := /bin/bash
race:
	set -o pipefail; $(GO) test -race $(RACE_PKGS) 2>&1 | tee race.txt

# Fuzz smoke: 15 s of new inputs for each fuzzer that guards a byte format,
# one invocation per target (-fuzz takes one). The decode fuzzers re-encode
# what they decode and compare, so they exercise the encoder too.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzDecodeRequest$$' -fuzztime=15s ./internal/transport/
	$(GO) test -run=NONE -fuzz='^FuzzDecodeResponse$$' -fuzztime=15s ./internal/transport/
	$(GO) test -run=NONE -fuzz='^FuzzStoreOps$$' -fuzztime=15s ./internal/storage/

# The benchmark harness is a nested module (benchmark/go.mod), invisible
# to `go vet ./...` and `go test ./...` at the root: its smoke test boots
# toy rings and asserts the per-layer metrics a routing or transport change
# can silently zero (p2p.handle_find_owner_us, transport.calls_per_op).
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Examples and commands must stay vet-clean and buildable, and every
# example must run to completion: they are the documentation of the
# public Client API.
EXAMPLES = blobstream churn heterogeneous quickstart rangequery tcpcluster

examples:
	$(GO) vet ./examples/... ./cmd/...
	$(GO) build ./examples/... ./cmd/...
	@for e in $(EXAMPLES); do echo "go run ./examples/$$e"; $(GO) run ./examples/$$e || exit 1; done

# Conformance: the identical scenario table against the Client on two
# harnesses (a StartCluster ring on the in-memory fabric and StartNode
# peers on loopback TCP; among its rows, a 1,500-item scan with no page
# size takes at most one page per owner it crosses, plus one), the
# crash-durability contract (write with r=3,
# kill the owner, lose nothing), the divergence-heal contract (corrupt a
# replica, anti-entropy repairs exactly the divergence, the owner's Info
# reports that work, deletes stay deleted), the write-concern
# contract (w=2 succeeds past a dead replica, w=3 fails with honest ack
# counts), the read-repair contract (a fallback read heals a stale owner
# by exactly the divergence), the ring-size estimate on a ring past
# the old 128-peer walk cap, the mid-scan churn contract (a paged
# scan rides out its serving peer's crash with no loss or duplication),
# and the restart-durability contract (crash a durable owner mid-WAL,
# restart it on the same data dir, lose no acked write, resurrect no
# delete, re-ship only the downtime delta), and the cache stale-safety
# contract (the route cache stays correct across an arc-moving join and
# an owner crash on both harnesses; TestRouteCache* adds one message
# per cached read, freshness after remote writes, and crash-window reads
# served by the chain) — race detector on. The
# faulted variant (TestFaultedRing) re-runs the scenario table on both
# live fabrics under a seeded 5%-drop/20ms-jitter fault plan plus a
# partition-heal case, the overload suite pins the p2p contract that
# a shedding peer is retried once and never evicted, and the carried-op
# suite (TestCarried*) pins that an op riding the walk's last hop costs
# the hops alone, runs exactly once across a splice, and — a write — is
# never re-sent after a lost reply, and that a step churn routes back
# through the entry node is as free as the first; TestLookupCorrectness
# and TestCrashAndHeal pin that every lookup ends at the true owner, also
# after crashes. The transport
# package contributes the wire-level contracts: the hello (a binary
# client settles on the binary codec; a raw frame or a version-1 hello is
# refused without disturbing the server), TLS round trips, overload
# shedding (saturate past the in-flight cap: typed
# ErrOverloaded, bounded goroutines, recovery), and the call path's own —
# handler workers on the resident pool (TestWorker*: sequential traffic
# starts at most two, a blocked handler delays nobody, parked ones retire
# on the reaper tick and on Close) and the caller-side flush (TestFlush*, TestCancelled*,
# TestWriteFailure*, TestLargeFrame*, TestWriterBounds*: one write per
# lone call, shared writes under concurrency, nothing sent for a context
# already done, a call cancelled before its dial matching context.Canceled
# as well as ErrUnreachable, one break and sent=true on a write error, big frames not
# pinned, pending frames capped against a peer that stops reading) — and
# value ownership (TestDecodedValue*, TestLargeFrameReadNotPinned and the
# FuzzDecode* seed corpora: nothing decoded aliases a reused read buffer,
# a value arrives in an allocation of its own size, no read buffer over
# the pool cap outlives its frame; TestTCPStoresExactValues carries the
# last two to a TCP owner's and replica's stores; TestDecodedValue* also
# pins that no decoded op or address string aliases a read buffer, and
# TestDecodeIntern* that ops and known addresses decode without allocating
# and that a connection's address table stays bounded) — and the wire
# bytes themselves (TestWireGolden: every counted-slice field, a scan page
# and a carried op's nested page encode to the committed hex). The p2p package
# adds the fan-out's legs, the resident pool's other user (TestFanoutLegs*:
# a put at r=2 starts no leg and sequential puts at r=3 keep one, Close
# leaves none, 16 concurrent writers share them, a cancelled fan-out still fills every
# slot and counts every send), the seeded link pick
# (TestPickCandidateSeedDeterministic: one seed picks one long-link
# candidate however the two parallel draws interleave) and the live walk
# (TestWalkGolden: every op's owner, cost and error and the messages sent
# over a ring with crashed, unstabilised peers match the committed
# record), and the scan page's bounds (TestScanPageBounds: an owner
# answers with all it holds of a range up to the request's limit, 8192
# items or 4 MiB of values, with an exact More, on the carried page and on
# OpScan alike). The resident package pins the pool both run on (TestPool*:
# a job goes to the goroutine that parked last, at most the cap stay
# parked, Done finds its goroutine parked, RetireParked ends the parked
# ones, Close waits for the busy ones and later jobs run on the caller).
# The storage package contributes the store contract that every backend's
# answers rest on (TestStoreMatchesModel and FuzzStoreOps's seed corpus: a
# store spanning several blocks agrees with a map model on every read, page,
# digest and WAL replay).
CONF_ROOT = TestConformance|TestFaultedRing|TestCrashDurability|TestDivergenceHeal|TestWriteConcern|TestReadRepair|TestRingSizeEstimate|TestScanChurn|TestRestartDurability|TestDeleteSurvivesRestart|TestCacheStaleSafety
CONF_P2P = TestWriteConcern|TestReadRepair|TestLookupCancelled|TestScanCancelled|TestOverloadedPeerStaysLinked|TestOverloadRetryOnce|TestOverloadSurfacesTypedError|TestRouteCache|TestLookupCorrectness|TestCrashAndHeal|TestCarried|TestInProcessDispatchCopies|TestTCPStoresExactValues|TestFanoutLegs|TestPickCandidateSeedDeterministic|TestRewireGolden|TestWalkGolden|TestScanPageBounds
CONF_TRANSPORT = TestCodecNegotiation|TestHandshakeRequired|TestTLS|TestOverloadShedding|TestClientInflightCapOverload|TestMuxCallTimeoutDoesNotPoisonPool|TestWorker|TestFlush|TestCancelled|TestWriteFailure|TestLargeFrame|TestWriterBounds|TestDecodedValue|TestDecodeIntern|TestWireGolden|FuzzDecodeRequest|FuzzDecodeResponse
CONF_STORAGE = TestStoreMatchesModel|FuzzStoreOps
CONF_RESIDENT = TestPoolHandsToLastParked|TestPoolParkedCap|TestPoolDoneAfterPark|TestPoolRetireParked|TestPoolClose

# conform PKG PATTERN: fail when an alternative of PATTERN matches no test
# in PKG (a renamed test would otherwise drop out of the gate silently),
# then run PATTERN's tests under the race detector.
define conform
	@names="$$($(GO) test -race -list '.*' $(1) | grep -E '^(Test|Fuzz)')" || exit 1; \
	for alt in $$(echo '$(2)' | tr '|' ' '); do \
		echo "$$names" | grep -Eq "$$alt" || { echo "conformance: -run alternative $$alt matches no test in $(1)"; exit 1; }; \
	done
	$(GO) test -race -run '$(2)' $(1)
endef

conformance:
	$(call conform,.,$(CONF_ROOT))
	$(call conform,./internal/p2p/,$(CONF_P2P))
	$(call conform,./internal/transport/,$(CONF_TRANSPORT))
	$(call conform,./internal/storage/,$(CONF_STORAGE))
	$(call conform,./internal/resident/,$(CONF_RESIDENT))

# Bench smoke: compile and run every benchmark once (shape check, not a
# measurement). End-to-end and per-layer numbers come from the benchmark
# harness: `bash benchmark/run.sh` (see benchmark/README.md).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./... | tee bench.txt

# The paper's evaluation at quick scale (3000 peers, seed 1): every figure,
# table and ablation of cmd/oscar-bench as text tables, each under its
# `# paper:` reference line. Stdout depends only on scale and seed, so the
# committed BENCH_paper.txt must be reproduced byte for byte (CI's paper job
# diffs it). It is an amd64 artifact: Go may fuse multiply-adds on arm64,
# which can move the last printed digit. Takes ~2.5–4 minutes.
paper:
	$(GO) run ./cmd/oscar-bench -seed 1 > BENCH_paper.txt

SOAK_SEED ?= 1
SOAK_NODES ?= 49

# Full-length in-process soak: a 12-node cluster under a seeded fault
# schedule (drops, jitter, slow nodes, an asymmetric partition) and churn
# (flash-crowd join, correlated crash of adjacent arc owners, rolling
# WAL restarts), loaded with a mixed Zipf put/get/delete/scan workload.
# Teardown asserts no w-acked write is lost and the ring reconverges;
# the committed BENCH_soak.json is this target's output, stamped with the
# commit it ran (suffixed -dirty for uncommitted changes).
soak:
	OSCAR_BENCH_COMMIT=$$(git describe --always --dirty 2>/dev/null || echo unknown) \
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

ci: fmt-check vet build test benchmark-check examples race fuzz-smoke conformance bench
