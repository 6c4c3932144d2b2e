# Tier-1 verification and development targets.
#
#   make verify   — full gate: build, vet, fpgavet lint, race-free tests,
#                   race-enabled tests
#   make tier1    — the minimal tier-1 loop (build + test)
#   make lint     — fpgavet static-analysis suite (determinism,
#                   boundary-reach, error hygiene, clocked components,
#                   bench-json, hosttime-taint, hotpath-alloc)
#   make lint-json — same suite, findings as a machine-readable JSON array
#                   (what the CI lint job uploads as an artifact)
#   make bench    — regenerate the committed perfbench baseline
#   make bench-gate — run the perf matrix and fail on any gated
#                   (simulated, deterministic) metric change vs the baseline
#   make hostbench — run the host-performance benchmark (BENCHMARK.json)
#                   once per workload and print each metric table
#
# The race target skips fpgapart/experiments: it re-runs every paper
# experiment and the race detector's ~10x overhead pushes it past any
# practical budget. It is sequential simulation code and stays covered
# by the race-free `test` target.

GO ?= go

.PHONY: verify tier1 build vet lint lint-json lint-fix test race bench bench-gate hostbench trace-demo fuzz

verify: build vet lint test race

tier1:
	$(GO) build ./... && $(GO) test ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/fpgavet ./...

# lint-json emits the same findings as a stable JSON array on stdout; CI
# redirects it to fpgavet.json and uploads it as an artifact.
lint-json:
	$(GO) run ./cmd/fpgavet -json ./...

# lint-fix reports findings as clickable file:line locations; automated
# rewriting is not implemented, so it always exits 0 and leaves the fixes
# to the developer (or to `//fpgavet:allow` where a violation is intended).
lint-fix:
	@$(GO) run ./cmd/fpgavet ./... \
		&& echo "fpgavet: nothing to fix" \
		|| echo "fpgavet: automated fixes are not implemented — apply the findings above by hand or suppress with //fpgavet:allow <analyzer> <reason>"

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m $$($(GO) list ./... | grep -v fpgapart/experiments)

# bench regenerates the committed baseline. Only needed after an intentional
# change to the simulator's cycle behavior or the scenario matrix; commit the
# updated bench/baseline/BENCH_*.json with the change that caused it.
bench:
	$(GO) run ./cmd/perfbench run -out bench/baseline

# bench-gate is the zero-noise perf regression gate: the gated metrics are
# simulated cycles (deterministic for a fixed seed), so any diff against the
# baseline is a true regression. On failure the diverging report is left at
# bench/baseline/BENCH_<suite>.got.json.
bench-gate:
	$(GO) run ./cmd/perfbench run -out bench/out
	@fail=0; \
	for suite in partition join distjoin sched memory cluster reqtrace; do \
		$(GO) run ./cmd/perfbench compare bench/baseline/BENCH_$$suite.json bench/out/BENCH_$$suite.json || fail=1; \
	done; \
	exit $$fail

# hostbench runs the host-performance benchmark once per workload listed in
# BENCHMARK.json. It measures how fast the simulator and serving tier run on
# this host, so its numbers are a trajectory to compare, not a gate; it
# exits non-zero only if a run's output checks fail. Override the run length
# or seed with HOSTBENCH_SECONDS / HOSTBENCH_SEED.
HOSTBENCH_SECONDS ?= 30
HOSTBENCH_SEED ?= 1
hostbench:
	@for w in $$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do \
		python3 hostbench/run.py --workload $$w --seed $(HOSTBENCH_SEED) --seconds $(HOSTBENCH_SECONDS) --trace 0 || exit 1; \
	done

# trace-demo exercises the causal-tracing stack end to end on a faulty
# sharded run: prints the critical-path profile and writes the per-request
# breakdown JSON, the flight-recorder postmortem, and the Chrome trace
# (open bench/out/trace.json in chrome://tracing or Perfetto — the req*
# track carries the root spans and flow arrows).
trace-demo:
	@mkdir -p bench/out
	$(GO) run ./cmd/cluster run -requests 32 -quota 2 -hot 0.4 -faulty \
		-reqtrace bench/out/reqtrace_breakdown.json \
		-flight bench/out/flight_postmortem.txt \
		-trace bench/out/trace.json

# fuzz runs each differential fuzz target for a short smoke window (Go's
# fuzzer accepts one -fuzz target per invocation). CI runs the same loop;
# raise FUZZTIME locally for a deeper session.
FUZZTIME ?= 30s
fuzz:
	@for t in \
		./internal/cpupart:FuzzPartIndex \
		./internal/cpupart:FuzzBufferedPartition \
		./internal/cpupart:FuzzBufferedAgainstHistogram \
		./hashjoin:FuzzJoinUnderBudget \
		./cluster:FuzzClusterRoute \
		./cluster:FuzzMembershipSchedule; do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
