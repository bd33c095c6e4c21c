# AcceSys build and CI entry points.
#
#   make ci       - what CI runs: lint, vet, race, examples, benchvet,
#                   e2e, fuzz, golden, equiv, benchsmoke, benchcheck,
#                   cover; it writes no committed file
#   make lint     - gofmt gate (fails listing unformatted files)
#   make test     - fast test pass
#   make race     - full test pass under the race detector (exercises
#                   the sweep worker pool with concurrent simulations)
#   make examples - compile every example and command
#   make benchvet - vet and compile the perfbench module (the benchmark
#                   driver), which go build ./... does not reach
#   make e2e      - the CLI end-to-end tests that skip under -short and
#                   -race: sweep, shard plan/run/merge, fleet, the
#                   serve daemon over HTTP, and explore determinism
#   make fuzz     - short native-fuzz pass over the manifest, shard
#                   plan and fleet spec parsers, manifests from parse
#                   to an audited run (small inputs), the cache entry
#                   decoder, the cache's entries.log reader, the
#                   profile and counters loaders (snapshot plus
#                   journal), the event queue's dispatch order against
#                   a brute-force reference, cache reads and writes
#                   against a flat memory, and fingerprint encoders
#                   against the reflection-walk reference (FUZZTIME
#                   per target, default 10s)
#   make golden   - golden-row conformance suite: all nine experiments
#                   plus the hetfarm and tenants manifests, i.e. every
#                   file in testdata/golden/ (UPDATE_GOLDEN=1 make
#                   golden rewrites them)
#   make bench    - one pass over the benchmark harness (short mode);
#                   refreshes the BENCH_*.json perf trajectories in
#                   place (ratcheted: committed values only improve)
#   make benchsmoke - the same pass into a throwaway BENCH_DIR: every
#                   root benchmark still runs, no baseline is touched
#   make benchcheck - perf regression gate: fresh trajectory run into a
#                   scratch dir, compared against the committed
#                   BENCH_*.json baselines with a BENCH_TOL band
#   make layerbench - B/op and ns/op or ns/event of a point's layers
#                   (one GEMM-512 point's fingerprint, system build, a
#                   fig4 small-packet point, small cold points, a warm
#                   fig4 re-run, the DRAM controller streaming reads and
#                   the PCIe fabric streaming TLPs) at -cpu 1 -count 5,
#                   then the wall per point of two engines sweeping the
#                   same cold points through one two-slot Flight
#                   (FlightOverlap, -cpu 2); writes no file and is not
#                   part of ci
#   make cover    - coverage profile with a minimum total-coverage gate
#   make figures  - regenerate every paper artifact (parallel, cached)
#   make equiv    - timing-vs-analytic audit of every reproduced figure

GO ?= go

.PHONY: all build vet lint test race examples benchvet e2e fuzz golden cover equiv ci bench benchsmoke benchcheck layerbench figures clean

# Minimum total statement coverage (percent) make cover enforces.
COVER_FLOOR ?= 75

# Per-target budget for make fuzz.
FUZZTIME ?= 10s

# Allowed fractional slowdown before make benchcheck fails (0.40 =
# fresh throughput may be up to 40% below the committed baseline —
# wide enough for shared-runner noise, tight enough to catch real
# hot-path regressions).
BENCH_TOL ?= 0.40

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# -short keeps this the fast pass: the golden suite and full-experiment
# determinism checks only run in their dedicated targets (golden, race).
test:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# go test only compiles packages it tests; examples and commands have
# no test files, so CI builds them explicitly.
examples:
	$(GO) build ./examples/... ./cmd/...

# perfbench/ is its own module (it reaches the repo through a replace
# directive), so go build ./... and the test targets never compile it.
# Vet and build it here, so an API change that breaks the benchmark
# fails CI. It writes nothing under perfbench/.
benchvet:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null .

# The CLI's end-to-end tests: each drives real subcommands (and, for
# serve, a re-executed daemon process) and compares structured rows,
# caches and traces. make race runs the same package but skips them.
e2e:
	$(GO) test -count=1 ./cmd/accesys

# Short native-fuzz pass: the parsers, accepted manifests' runs, the
# cache entry decoder, the cache log reader, the fingerprint encoders,
# the event queue's ordering and the cache model's data path explore
# beyond their seed corpora for FUZZTIME each.
# Crashers land under testdata/fuzz/ in the failing package — commit
# them as regression seeds after fixing. FuzzCacheVsReference's inputs
# run up to 2,560 cache operations, so minimizing one at the default
# budget (60 s) would spend its whole FUZZTIME; 10 attempts per input
# keep it executing.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzManifestParse$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzManifestRun$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzPlanParse$$' -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzSpecParse$$' -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzCacheLog$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzProfileLoad$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzCountersLoad$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprintMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzEventQueueOrder$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzCacheVsReference$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/cache

# The golden suite re-runs all nine experiments and diffs their rows
# against testdata/golden/ (it skips itself under -short and -race, so
# this is its only CI entry point); the hetfarm and tenants rows there
# are pinned by cmd/accesys's TestHetGoldenRows, which runs here too.
golden:
	$(GO) test -count=1 -run TestGolden ./internal/scenario
	$(GO) test -count=1 -run TestHetGoldenRows ./cmd/accesys

cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < floor+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }

# Cross-backend equivalence audit of every reproduced figure (exit 1
# on divergence beyond each scenario's fail band), against a fresh
# cache directory so it neither reads nor fills the user's own cache.
equiv:
	@dir=$$(mktemp -d) && $(GO) run ./cmd/accesys equiv -cache $$dir fig2 fig3 fig4 fig5 fig6 tab4 fig7 fig8 fig9; \
	status=$$?; rm -rf $$dir; exit $$status

ci: lint vet race examples benchvet e2e fuzz golden equiv benchsmoke benchcheck cover

bench:
	$(GO) test -short -bench=. -benchtime=1x -run '^$$' .

benchsmoke:
	@dir=$$(mktemp -d) && BENCH_DIR=$$dir $(MAKE) --no-print-directory bench; \
	status=$$?; rm -rf $$dir; exit $$status

# Fresh trajectory run (3 samples, ratcheted to best) into a scratch
# directory, then compare against the committed baselines.
BENCHFRESH_DIR := .benchfresh
benchcheck:
	@rm -rf $(BENCHFRESH_DIR) && mkdir -p $(BENCHFRESH_DIR)
	BENCH_DIR=$(BENCHFRESH_DIR) $(GO) test -short -run '^$$' \
		-bench 'SimulatorThroughput|SweepThroughput|ShardMerge|Explore' \
		-benchtime=1x -count=3 .
	$(GO) run ./cmd/benchcheck -baseline . -fresh $(BENCHFRESH_DIR) -tol $(BENCH_TOL)
	@rm -rf $(BENCHFRESH_DIR)

# The layer benchmarks a cold point's and a warm re-run's cost are
# measured with. None of them records into BENCH_*.json, so this
# prints and writes nothing.
layerbench:
	$(GO) test -run '^$$' -bench '^Benchmark(Fingerprint|SystemBuild|Fig4SmallPacket|SmallPointsCold|WarmCacheSweep)$$' \
		-benchmem -cpu 1 -count 5 .
	$(GO) test -run '^$$' -bench '^BenchmarkStreamingRead$$' -benchmem -cpu 1 -count 5 ./internal/dram
	$(GO) test -run '^$$' -bench '^BenchmarkFabricStream$$' -benchmem -cpu 1 -count 5 ./internal/pcie
	$(GO) test -run '^$$' -bench '^BenchmarkFlightOverlap$$' -benchmem -cpu 2 -count 5 ./internal/sweep

figures: build
	$(GO) run ./cmd/accesys run -v

clean:
	$(GO) clean ./...
