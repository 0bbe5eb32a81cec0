GO ?= go
GOFMT ?= gofmt

.PHONY: build test lint fmt-check lint-json race fuzz-smoke bench-smoke bench-accum bench-sched chaos-smoke delta-replay perfbench-check fma-check loc all

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the gofmt check, the repository's own analyzer suite
# (determinism, entropy, cancellation, goroutine-join, fingerprint,
# allocation, lock-order and reachability contracts) and go vet.
lint: fmt-check
	$(GO) run ./cmd/asalint ./...
	$(GO) vet ./...

# fmt-check fails on any Go file gofmt would rewrite, over the directories
# `go list ./...` reports plus the perfbench module: the analyzer's testdata
# fixtures are not packages and keep the layout their expected diagnostics
# point at.
fmt-check:
	@unformatted=$$(for d in $$($(GO) list -f '{{.Dir}}' ./...) perfbench; do $(GOFMT) -l $$d/*.go; done); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# lint-json writes the canonical machine-readable findings document
# (asalint.json: sorted, module-relative paths, no timestamps — identical
# bytes across runs over identical sources). The file is written even when
# findings fail the target, so CI can always upload it as an artifact.
lint-json:
	$(GO) run ./cmd/asalint -format json ./... > asalint.json

race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/serve
	$(GO) test -race -count=2 -run 'Metrics|Exposition' ./internal/serve/cluster

fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzReadEdgeList -fuzztime=15s ./internal/graph
	$(GO) test -run=NONE -fuzz=FuzzDetectRequest -fuzztime=15s ./internal/serve/cluster
	$(GO) test -run=NONE -fuzz=FuzzDeltaRequest -fuzztime=15s ./internal/serve/cluster
	$(GO) test -run=NONE -fuzz=FuzzMapEquationOracle -fuzztime=15s ./internal/infomap

bench-smoke:
	$(GO) test -run=NONE -bench='Sched|AsalintRepo|Ingest|Kernel|WarmReplay|DistRun' -benchtime=1x ./...

# bench-accum regenerates the accumulator backend sweep at quick scale and
# verifies the committed BENCH_accum.json still matches the schema and the
# probe-free acceptance invariants.
bench-accum:
	$(GO) run ./cmd/asabench -exp accum -quick -json BENCH_accum_ci.json
	$(GO) test -run 'TestAccumQuick|TestCommittedAccumArtifact' -v ./internal/bench

# bench-sched regenerates the scheduler sweep at quick scale (into a CI
# scratch file, never the committed artifact) with the Chrome trace of its
# runs, and verifies the committed BENCH_sched.json still matches the
# schema and determinism invariants.
bench-sched:
	$(GO) run ./cmd/asabench -exp sched -quick -json BENCH_sched_ci.json -trace-out BENCH_sched_trace.json
	$(GO) test -run 'TestSchedQuick|TestCommittedSchedArtifact' -v ./internal/bench

# delta-replay is the incremental-detection proof tier: the committed
# FuzzDeltaReplay seed corpus plus a short fuzz session against the
# scratch-rebuild oracle, the differential warm-vs-cold tests (shared-memory,
# distributed, serve lineage, cluster chaos) under the race detector, the
# warm-start golden e2e, and the X10 warm-vs-cold experiment at quick scale.
delta-replay:
	$(GO) test -run=NONE -fuzz=FuzzDeltaReplay -fuzztime=15s ./internal/graph
	$(GO) test -race -run 'TestDelta|TestKHopFrontier|FuzzDeltaReplay' ./internal/graph
	$(GO) test -race -run 'TestWarmStart' ./internal/infomap ./internal/dist
	$(GO) test -race -run 'TestDeltaUpload|TestColdDetectOnVersion|TestWarm' ./internal/serve
	$(GO) test -race -run 'TestClusterDelta' ./internal/serve/cluster
	$(GO) test -run 'TestE2EWarmStart' .
	$(GO) run ./cmd/asabench -exp delta -quick

# chaos-smoke exercises the replicated service under the seeded fault
# injector (race detector on), then drives an in-process 3-replica cluster
# with the open-loop load generator, capturing one forwarded request's merged
# cluster trace as a Perfetto-loadable artifact.
chaos-smoke:
	$(GO) test -race -run 'TestCluster|TestPeerClient|TestBreaker' -count=2 ./internal/serve/cluster
	$(GO) run ./cmd/asaload -self-serve -self-replicas 3 -fault-drop 0.05 -fault-fail 0.05 -rate 100 -duration 5s -out BENCH_serve_ci.json -trace-out cluster_trace_ci.json

# perfbench-check vets and tests the wall-clock benchmark module. It has its
# own go.mod, so `go test ./...` at the root never compiles it; this target
# catches an API change that breaks the benchmark. GOPROXY=off keeps it
# offline: the module's only dependency is this repository, by replace.
perfbench-check:
	cd perfbench && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test ./...

# FMA_PKGS lists the packages whose floating-point code must compile to no
# fused multiply-add on any target. The Go spec lets an architecture fuse
# x*y + z into one instruction with one rounding, which changes result
# bits; an explicit float64(x*y) conversion forbids it. Extend the list by
# editing this line.
FMA_PKGS := internal/dist internal/mapeq internal/pagerank internal/infomap
FMA_ARCHS := arm64 riscv64 ppc64le

# fma-check cross-compiles cmd/infomap for each of FMA_ARCHS and fails on
# any fused multiply-add (FMADD/FMSUB/FNMADD/FNMSUB, either precision) that
# `go tool objdump` finds in a function of FMA_PKGS. It also fails when the
# build or the disassembly fails, or when the disassembly holds no function
# of some listed package, so a check that read nothing cannot pass. It runs
# nothing on the target: it shows the instructions are absent, not that the
# binary runs.
fma-check:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; fail=0; \
	pkgs=$$(echo $(FMA_PKGS) | tr ' ' '|'); \
	for a in $(FMA_ARCHS); do \
		GOOS=linux GOARCH=$$a $(GO) build -o $$tmp/infomap-$$a ./cmd/infomap || exit 1; \
		$(GO) tool objdump -s "asamap/($$pkgs)\." $$tmp/infomap-$$a > $$tmp/dis-$$a || \
			{ echo "fma-check: go tool objdump failed on $$a"; exit 1; }; \
		for p in $(FMA_PKGS); do \
			grep -q "^TEXT .*asamap/$$p\." $$tmp/dis-$$a || \
				{ echo "fma-check: no function of $$p disassembled on $$a"; exit 1; }; \
		done; \
		found=$$(awk '$$4 ~ /^FN?M(ADD|SUB)[DS]?$$/' $$tmp/dis-$$a); \
		if [ -n "$$found" ]; then echo "fused multiply-add on $$a:"; echo "$$found"; fail=1; fi; \
	done; \
	if [ $$fail = 0 ]; then echo "fma-check: no fused multiply-add in $(FMA_PKGS) on $(FMA_ARCHS)"; fi; \
	exit $$fail

# loc prints the Go line counts, non-test and test, over the package
# directories `go list ./...` reports plus the perfbench module. Change
# reports quote its difference between two commits.
loc:
	@files=$$(for d in $$($(GO) list -f '{{.Dir}}' ./...) perfbench; do ls $$d/*.go; done); \
	echo "non-test $$(cat $$(echo "$$files" | grep -v '_test\.go$$') | wc -l)"; \
	echo "test     $$(cat $$(echo "$$files" | grep '_test\.go$$') | wc -l)"
