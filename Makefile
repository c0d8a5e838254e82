# Tier-1 gate: `make check` is what CI and pre-merge runs — build, vet,
# the full test suite, and a race pass over the hot-path packages whose
# buffer-reuse discipline is easiest to get wrong. `make race` is the
# slower full-suite race pass.
GO ?= go

# Per-target budget for the fuzz smoke pass (long campaigns run manually).
FUZZTIME ?= 5s

.PHONY: build test race vet check perfbench-check fuzz-smoke bench-smoke bench-read bench-scale bench-durability bench-elastic trace-smoke api-snapshot api-check

# The public surface of the client-facing packages, as sorted declaration
# lines from `go doc -all`. api-check fails when the surface drifts from
# the committed snapshot; regenerate deliberately with api-snapshot.
API_PKGS = flstore chariots
api_decl = $(GO) doc -all ./internal/$(1) | grep -E '^(func|type|var|const)' | LC_ALL=C sort

api-snapshot:
	@mkdir -p api
	@for p in $(API_PKGS); do \
		$(call api_decl,$$p) > api/$$p.txt || exit 1; \
		echo "api/$$p.txt written"; \
	done

api-check:
	@for p in $(API_PKGS); do \
		$(call api_decl,$$p) > api/$$p.txt.got || exit 1; \
		if ! diff -u api/$$p.txt api/$$p.txt.got; then \
			rm -f api/$$p.txt.got; \
			echo "API surface of internal/$$p drifted from api/$$p.txt."; \
			echo "Run 'make api-snapshot' and commit if the change is intended."; \
			exit 1; \
		fi; \
		rm -f api/$$p.txt.got; \
	done
	@echo "api surface matches snapshots"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

check: build vet test api-check trace-smoke bench-scale bench-durability bench-elastic perfbench-check
	$(GO) test -race ./internal/wire ./internal/core ./internal/storage ./internal/replica ./internal/faultinject ./internal/scale
	$(GO) test -race -run 'Replicated|ReplicaAppend|SeededKill|GossipHeadResumes|TailSurvives|TailZeroFullScans' ./internal/flstore

# perfbench-check builds and tests the benchmark module. It is a separate
# Go module (perfbench/go.mod), so the root `go test ./...` does not see
# it, yet it wraps the maintainer and store interfaces and must keep
# compiling against them.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# trace-smoke proves the tracing layer end to end: the span trees of a
# reduced tracelat run must cover client → pipeline → maintainer →
# replica ack and attribute >= 90% of the measured append latency, and
# the untraced append path must stay inside its allocation budgets.
trace-smoke:
	$(GO) test -run 'TraceSmoke' -count=1 ./internal/cluster
	$(GO) test -run 'AllocBudget' -count=1 ./internal/flstore ./internal/chariots

# bench-scale is the scale-harness smoke: a reduced steady run over the
# emulated 2-DC WAN plus the partition/heal replay (two same-seed runs
# must produce byte-identical event logs and converge after heal). The
# full-size scenarios (>= 10K sessions) run via `repro -exp scale`.
bench-scale:
	$(GO) test -run 'TestScaleSteadySmoke|TestScalePartitionHealReplay' -count=1 ./internal/scale

# bench-durability is the durability-tier smoke: a reduced run of both
# phases — per-batch vs group-commit fsync arms (the group arms must
# collapse fsyncs/op below 1 at 8+ appenders) and the three quorum-ack
# cluster arms — asserting the artifact's ledger and shape invariants.
# The full acceptance ratios (group p99 <= 0.5x per-batch at 64
# appenders, slow-disk quorum p99 <= 2x healthy) run via
# `repro -exp durability`.
bench-durability:
	$(GO) test -run 'TestDurabilitySmoke' -count=1 ./internal/cluster

# bench-elastic is the live-elasticity smoke: a shortened three-phase run
# where the offered load doubles past the old member set's capacity, the
# autoscaler fires an online epoch switchover, and the run must end with
# an intact log (no lost or duplicated LIds, migration complete) and
# bounded post-flip append p99. The full-size run is `repro -exp elastic`.
bench-elastic:
	$(GO) test -run 'TestElasticSmoke' -count=1 ./internal/cluster

# fuzz-smoke runs each codec fuzz target briefly: enough to catch decoder
# regressions on corrupt input without a long campaign.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzDecodeRecord$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz='^FuzzDecodeRecords$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz='^FuzzRead$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -fuzz='^FuzzDecodeRangeResult$$' -fuzztime=$(FUZZTIME) ./internal/flstore
	$(GO) test -fuzz='^FuzzArchiveVolumeDecode$$' -fuzztime=$(FUZZTIME) ./internal/storage

# bench-smoke runs the allocation-budget benchmarks once; the AllocsPerRun
# assertions in the regular tests enforce the budgets, this shows the numbers.
bench-smoke:
	$(GO) test -run='^$$' -bench='Allocs$$' -benchmem -benchtime=100x ./internal/flstore ./internal/chariots

# bench-read runs the read-path benchmarks: batched range read vs single
# reads, cached tail reads, and push tailing. The corresponding
# budgets are enforced by TestReadRangeAllocBudget / TestTailCachedReadAllocBudget.
# The read-scaling smoke drives a miniature replica-count sweep (R=1 and
# R=3 over real TCP) end to end; the ≥2× throughput bar itself is enforced
# by `repro -exp readpath` with full budgets.
bench-read:
	$(GO) test -run='^$$' -bench='ReadRange|SingleReads|TailCached|TailPush' -benchmem -benchtime=100x ./internal/flstore
	$(GO) test -run 'TestReadScalingSweepSmoke' -count=1 ./internal/cluster
