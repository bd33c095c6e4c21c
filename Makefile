# AcceSys build and CI entry points.
#
#   make ci       - what CI runs: lint, vet, race, examples, smoke,
#                   shardsmoke, fleetsmoke, servesmoke, exploresmoke,
#                   fuzz, golden, equiv, bench, benchcheck, cover
#   make lint     - gofmt gate (fails listing unformatted files)
#   make test     - fast test pass
#   make race     - full test pass under the race detector (exercises
#                   the sweep worker pool with concurrent simulations)
#   make examples - compile every example and command
#   make smoke    - run a tiny manifest through `accesys sweep`
#   make shardsmoke - 3-shard fig4 plan -> run -> merge -> verify the
#                   merged cache warm-hits every row
#   make fleetsmoke - one-command fleet (2 workers) over the smoke
#                   manifest, then verify the merged cache is warm
#   make servesmoke - sweep-as-a-service daemon e2e: a real `accesys
#                   serve` process on an ephemeral port, driven over
#                   HTTP (submit -> poll -> rows, then a fully-warm
#                   re-submit), drained with SIGTERM
#   make exploresmoke - seeded small-budget `accesys explore` over the
#                   fig4-derived objective, run twice from fresh caches
#                   to verify byte-identical frontiers/traces, with the
#                   trace proving the screen pruned the space
#   make fuzz     - short native-fuzz pass over the manifest and shard
#                   plan parsers, the cache entry decoder, the
#                   profile.json/counters.json loaders, and the event
#                   queue's dispatch order against a brute-force
#                   reference (FUZZTIME per target, default 10s)
#   make golden   - golden-row conformance suite (all nine experiments)
#   make bench    - one pass over the benchmark harness (short mode);
#                   refreshes the BENCH_*.json perf trajectories in
#                   place (ratcheted: committed values only improve)
#   make benchcheck - perf regression gate: fresh trajectory run into a
#                   scratch dir, compared against the committed
#                   BENCH_*.json baselines with a BENCH_TOL band
#   make cover    - coverage profile with a minimum total-coverage gate
#   make figures  - regenerate every paper artifact (parallel, cached)
#   make equiv    - timing-vs-analytic audit of every reproduced figure

GO ?= go

.PHONY: all build vet lint test race examples smoke shardsmoke fleetsmoke servesmoke exploresmoke fuzz golden cover equiv ci bench benchcheck figures clean

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

smoke:
	$(GO) run ./cmd/accesys sweep -nocache -jobs 2 testdata/smoke.json

# Distributed-sweep smoke: partition fig4 into 3 shards, run each into
# its own cache directory, merge, and verify a sweep over the merged
# cache serves all 35 rows warm (zero cold simulations).
SHARDSMOKE_DIR := .shardsmoke
shardsmoke:
	@rm -rf $(SHARDSMOKE_DIR) && mkdir -p $(SHARDSMOKE_DIR)
	$(GO) run ./cmd/accesys shard plan -shards 3 testdata/fig4.json > $(SHARDSMOKE_DIR)/plan.json
	$(GO) run ./cmd/accesys shard run -shard 0/3 -dir $(SHARDSMOKE_DIR)/s0 testdata/fig4.json
	$(GO) run ./cmd/accesys shard run -shard 1/3 -dir $(SHARDSMOKE_DIR)/s1 testdata/fig4.json
	$(GO) run ./cmd/accesys shard run -shard 2/3 -dir $(SHARDSMOKE_DIR)/s2 testdata/fig4.json
	$(GO) run ./cmd/accesys shard merge -out $(SHARDSMOKE_DIR)/merged \
		$(SHARDSMOKE_DIR)/s0 $(SHARDSMOKE_DIR)/s1 $(SHARDSMOKE_DIR)/s2
	$(GO) run ./cmd/accesys sweep -cache $(SHARDSMOKE_DIR)/merged -v testdata/fig4.json \
		> $(SHARDSMOKE_DIR)/rows.txt 2> $(SHARDSMOKE_DIR)/verify.log
	@grep -q "35 hits, 0 misses" $(SHARDSMOKE_DIR)/verify.log || \
		{ echo "shardsmoke: merged cache not fully warm:"; cat $(SHARDSMOKE_DIR)/verify.log; exit 1; }
	@echo "shardsmoke: merged cache served all 35 rows warm"
	@rm -rf $(SHARDSMOKE_DIR)

# Fleet smoke: a cold multi-worker sweep as one command, verified by a
# fully-warm follow-up sweep over the merged cache.
FLEETSMOKE_DIR := .fleetsmoke
fleetsmoke:
	@rm -rf $(FLEETSMOKE_DIR)
	$(GO) run ./cmd/accesys fleet -workers 2 -out $(FLEETSMOKE_DIR) testdata/smoke.json
	$(GO) run ./cmd/accesys sweep -cache $(FLEETSMOKE_DIR) -v testdata/smoke.json \
		> $(FLEETSMOKE_DIR)/rows.txt 2> $(FLEETSMOKE_DIR)/verify.log
	@grep -q "4 hits, 0 misses" $(FLEETSMOKE_DIR)/verify.log || \
		{ echo "fleetsmoke: fleet cache not fully warm:"; cat $(FLEETSMOKE_DIR)/verify.log; exit 1; }
	@echo "fleetsmoke: fleet cache served all 4 rows warm"
	@rm -rf $(FLEETSMOKE_DIR)

# Serve smoke: the daemon e2e re-execs the test binary as a real
# `accesys serve` process and drives the submit/poll/rows lifecycle
# over HTTP, including the warm second submission and the SIGTERM
# drain.
servesmoke:
	$(GO) test -count=1 -run '^TestServeSmokeDaemon$$' ./cmd/accesys

# Explore smoke: the multi-fidelity search over the fig4-derived
# objective, twice from fresh caches — frontiers and traces must be
# byte-identical (the determinism contract), rank 1 must be the known
# optimum, and the trace must show the analytic screen pruned the
# timing rung to under half the space. A third run over the first
# cache must promote zero cold points.
EXPLORESMOKE_DIR := .exploresmoke
exploresmoke:
	@rm -rf $(EXPLORESMOKE_DIR) && mkdir -p $(EXPLORESMOKE_DIR)
	$(GO) run ./cmd/accesys explore -cache $(EXPLORESMOKE_DIR)/c1 \
		-trace $(EXPLORESMOKE_DIR)/t1.json testdata/explore_fig4.json \
		> $(EXPLORESMOKE_DIR)/f1.txt
	$(GO) run ./cmd/accesys explore -cache $(EXPLORESMOKE_DIR)/c2 \
		-trace $(EXPLORESMOKE_DIR)/t2.json testdata/explore_fig4.json \
		> $(EXPLORESMOKE_DIR)/f2.txt
	@cmp $(EXPLORESMOKE_DIR)/f1.txt $(EXPLORESMOKE_DIR)/f2.txt || \
		{ echo "exploresmoke: same-seed frontiers differ"; exit 1; }
	@cmp $(EXPLORESMOKE_DIR)/t1.json $(EXPLORESMOKE_DIR)/t2.json || \
		{ echo "exploresmoke: same-seed traces differ"; exit 1; }
	@grep -Eq '^ *1 +fig4-64-512 ' $(EXPLORESMOKE_DIR)/f1.txt || \
		{ echo "exploresmoke: rank 1 is not the known optimum:"; cat $(EXPLORESMOKE_DIR)/f1.txt; exit 1; }
	@cold=$$(awk -F': ' '/"cold_timing"/ {gsub(/,/, "", $$2); print $$2}' $(EXPLORESMOKE_DIR)/t1.json); \
		[ "$$cold" -gt 0 ] && [ "$$cold" -lt 18 ] || \
		{ echo "exploresmoke: cold-simulated $$cold of 35 points; screen not pruning"; exit 1; }
	$(GO) run ./cmd/accesys explore -cache $(EXPLORESMOKE_DIR)/c1 \
		-trace $(EXPLORESMOKE_DIR)/t3.json testdata/explore_fig4.json \
		> $(EXPLORESMOKE_DIR)/f3.txt
	@cmp $(EXPLORESMOKE_DIR)/f1.txt $(EXPLORESMOKE_DIR)/f3.txt || \
		{ echo "exploresmoke: warm re-run frontier differs"; exit 1; }
	@grep -q '"cold_timing": 0' $(EXPLORESMOKE_DIR)/t3.json || \
		{ echo "exploresmoke: warm re-run cold-simulated points"; exit 1; }
	@echo "exploresmoke: deterministic frontier, optimum found, warm re-run fully cached"
	@rm -rf $(EXPLORESMOKE_DIR)

# Short native-fuzz pass: the parsers, the cache entry decoder and the
# event queue's ordering explore beyond their seed corpora for FUZZTIME
# each. Crashers land under testdata/fuzz/ in the failing package —
# commit them as regression seeds after fixing.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzManifestParse$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzPlanParse$$' -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzProfileLoad$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzCountersLoad$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzEventQueueOrder$$' -fuzztime $(FUZZTIME) ./internal/sim

# The golden suite re-runs all nine experiments and diffs their rows
# against testdata/golden/ (it skips itself under -short and -race, so
# this is its only CI entry point).
golden:
	$(GO) test -count=1 -run TestGolden ./internal/exp

cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < floor+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }

# Cross-backend equivalence audit of every reproduced figure (exit 1
# on divergence beyond each scenario's fail band).
equiv:
	$(GO) run ./cmd/accesys equiv fig2 fig3 fig4 fig5 fig6 tab4 fig7 fig8 fig9

ci: lint vet race examples smoke shardsmoke fleetsmoke servesmoke exploresmoke fuzz golden equiv bench benchcheck cover

bench:
	$(GO) test -short -bench=. -benchtime=1x -run '^$$' .

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

figures: build
	$(GO) run ./cmd/accesys run -v

clean:
	$(GO) clean ./...
