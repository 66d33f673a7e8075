GO ?= go

.PHONY: all build vet test race race-short lint lint-fast lint-perfbudget bench bench-quick bench-check bench-test generate stealsweep stealsweep-smoke serve-soak trace-smoke fuzz-smoke chaos wake-bench clock-bench watch-bench serve-scale-bench fmt layout loc sim-goldens ci

all: build test lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

# Race-detect every scheduler backend that has a thief/victim protocol
# (direct task stack, Chase-Lev deque, locked deque, central queue) plus the simulator driving them and the virtual-time
# kernel under it (internal/vtime: its coroutine token hand-off is what
# makes the simulator's plain shared data race-free), the registry's
# chaos-profile conformance suite (internal/sched), the serving layer's
# concurrent-submission/mid-flight-cancellation suite, and the generated
# ports both of those run (internal/gen).
race:
	$(GO) test -race -count=1 ./internal/core/... ./internal/chaselev/... \
		./internal/locksched/... ./internal/ompstyle/... ./internal/sim/... \
		./internal/vtime/... ./internal/sched/... ./internal/serve/... \
		./internal/wskit/... ./internal/gen/...

# The same pass as CI runs it: -short, plus the workload packages.
race-short:
	$(GO) test -race -count=1 -short ./internal/core/... ./internal/chaselev/... \
		./internal/locksched/... ./internal/ompstyle/... ./internal/sim/... \
		./internal/vtime/... ./internal/sched/... ./internal/serve/... \
		./internal/wskit/... ./internal/gen/... ./internal/workloads/

# woolvet enforces the direct-task-stack protocol invariants
# (atomic-only fields, owner-private fields, cache-line layout,
# spawn/join balance, publication ordering, the compiler perf budget,
# and the stale-suppression audit) over the whole module. See
# DESIGN.md §10 and §15.
lint:
	$(GO) run ./cmd/woolvet ./...

# The fast passes only — everything except perfbudget, which shells
# out to `go build -gcflags=-m` per package and wants a warm build
# cache (CI runs the two halves as separate steps for readable
# timings; see .github/workflows/ci.yml).
lint-fast:
	$(GO) run ./cmd/woolvet -only atomicfield,ownerprivate,layoutguard,spawnjoin,publication ./...

# The compiler-budget pass alone, dumping the raw -gcflags=-m logs it
# parsed into woolvet-mlogs/ (the CI failure artifact).
lint-perfbudget:
	$(GO) run ./cmd/woolvet -only perfbudget -mlog woolvet-mlogs ./...

# The repository's benchmark (bench/, declared in BENCHMARK.json): five
# workloads from a spawn/join pair to a served request, each with its
# correctness check: 3 untraced runs and one traced run per workload,
# a table per end-to-end metric, then every per-layer metric.
# bench/README.md documents the script's other arguments
# (bash bench/run.sh --workload fib-tree --trace 1).
bench:
	bash bench/run.sh

# Every workload for a fraction of a second each (~30 s with the
# build): the correctness checks run, the timings are not evidence.
bench-quick:
	bash bench/run.sh -quick

# The benchmark's own steadiness check: ten runs per workload, fails
# when a metric spreads too widely to tell a change from noise.
bench-check:
	bash bench/run.sh -check -reps 10

# The benchmark module's own tests. bench/ is a separate module, so
# `go test ./...` from the root does not run them (the root only vets
# it, TestBenchModuleVets); they are timing-sensitive, ~12 s.
bench-test:
	cd bench && $(GO) test ./...

# Regenerate the woolgen outputs (*_gen.go) from their go:generate
# declarations. The drift test (internal/gen TestCommittedOutputsAreFresh)
# fails if a committed output goes stale or gets hand-edited, or if a
# *_gen.go file is no directive's output.
generate:
	$(GO) generate ./...

# The steal-policy sweep (DESIGN.md §14): every policy × workload on
# every backend advertising steal policies, with the steal matrix
# extracted from the run's trace, plus the same policy grid on the
# simulator's sharded 64-processor topology. The report goes to
# STEALSWEEP_JSON; nothing is committed.
STEALSWEEP_JSON ?= /tmp/woolsteal-smoke.json
stealsweep:
	$(GO) run ./cmd/woolbench -scale full -stealsweep $(STEALSWEEP_JSON)

# CI smoke of the same sweep at quick scale: the grid must complete and
# cover all four policies and the simulator's direct-stack kind. It
# asserts no locality figure; cmd/woolbench
# TestRingLocalityCountsTheNeighborhood pins the local_frac rule on a
# fixed matrix.
stealsweep-smoke:
	$(GO) run ./cmd/woolbench -scale quick -stealsweep $(STEALSWEEP_JSON)
	grep -q '"policy": "random"' $(STEALSWEEP_JSON)
	grep -q '"policy": "last-victim"' $(STEALSWEEP_JSON)
	grep -q '"policy": "sequential"' $(STEALSWEEP_JSON)
	grep -q '"policy": "localized"' $(STEALSWEEP_JSON)
	grep -q '"kind": "direct-stack"' $(STEALSWEEP_JSON)

# The self-healing soak (DESIGN.md §17): a seeded mixed workload —
# healthy tenants at ~1.5x capacity, a panicking tenant, a slow tenant
# with doomed deadlines — against serve-level chaos (failed Resets,
# failing probes), race-detected. Asserts healthy success >= 99%, the
# failing tenant's breaker opened and half-opened, at least one lane
# quarantined and replaced, the accounting identities, and zero
# goroutine leaks at shutdown. The -v log carries the replay line
# (seed + duration). Raise SOAK for a longer soak.
SOAK ?= 10s
serve-soak:
	$(GO) test ./internal/serve/ -race -count=1 -run 'TestServeSoak' -v \
		-serve.soak=$(SOAK)

# End-to-end check of the wooltrace pipeline (DESIGN.md §11): export a
# Chrome trace from a real run, validate it against the trace_event
# schema with -checktrace, and require the load-balancing events (STEAL
# from the run, PARK from the settle window) plus a non-empty steal
# matrix. The settle window lets the idle workers reach their PARK
# transitions before the snapshot — on a loaded single-CPU machine they
# may not get a timeslice to park during the run itself.
TRACE_SMOKE_JSON ?= /tmp/wooltrace-smoke.json
trace-smoke:
	$(GO) run ./cmd/woolrun -workload fib -n 25 -workers 4 -private \
		-settle 300ms -trace $(TRACE_SMOKE_JSON) -stealmatrix | tee $(TRACE_SMOKE_JSON).out
	$(GO) run ./cmd/woolrun -checktrace $(TRACE_SMOKE_JSON)
	grep -q '"STEAL"' $(TRACE_SMOKE_JSON)
	grep -q '"PARK"' $(TRACE_SMOKE_JSON)
	grep -q 'total steals:' $(TRACE_SMOKE_JSON).out
	! grep -q 'total steals: 0$$' $(TRACE_SMOKE_JSON).out

# Short native-fuzz passes over the two lock-free backends: random
# seed-derived spawn trees with irregular fan-out, a tiny task pool so
# every run also crosses the overflow-degradation path, and the serial
# walk as the oracle. Raise FUZZTIME for a longer soak.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzSpawnTree -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chaselev/ -run '^$$' -fuzz FuzzSpawnTree -fuzztime $(FUZZTIME)

# The fault-injection torture suite (DESIGN.md §12): every registered
# scheduler under every built-in chaos profile, race-detected, then a
# time-boxed randomized seed sweep that logs each seed tried so any
# failure is replayable. Raise CHAOS_SWEEP for a longer soak.
CHAOS_SWEEP ?= 20s
chaos:
	$(GO) test ./internal/sched/ -race -count=1 -run 'TestChaosTorture' -v
	$(GO) test ./internal/sched/ -race -count=1 -run 'TestChaosSeedSweep' -v \
		-chaos.sweep=$(CHAOS_SWEEP)

# The evidence for a lane's two wake sources (DESIGN.md §16.1): how long
# a goroutine woken by a submitter that keeps spinning takes to run, by
# channel send (runnext), bumped out of runnext, and by timer Reset(0),
# at p50/p90/p99. 20 samples per case keep it compiling and running;
# read it with -benchtime 400x. It skips itself on one CPU.
wake-bench:
	$(GO) test -run '^$$' -bench WakeFromSpinningSubmitter -benchtime 20x ./internal/serve

# The unit price of the clock reads a served request makes (DESIGN.md
# §16.1, *Ledger, one stamp*): ns per time.Since(epoch), per time.Now()
# and per time.Until on a context deadline. What dropping a read saves
# on serve-tiny-closed scales with these rows, so read them on the host
# before comparing that workload across hosts. Then the price of what a
# success does with its end stamp: a breaker shard's Success on the
# time.Time that epoch.Add builds, the cached SuccessSince inside one
# epoch, an estimator shard's Observe, and the Due check every request
# makes (BenchmarkSuccessPath).
clock-bench:
	$(GO) test -run '^$$' -bench RequestClock -benchtime 200000x ./internal/serve
	$(GO) test -run '^$$' -bench SuccessPath -benchtime 200000x ./internal/resilience

# Whether a server scales with its clients (DESIGN.md §16.1, *Ledger,
# two clients*): req/s and CPUs used for closed-loop fib(4) clients —
# one client on a two-lane server, two on it, and two on two one-lane
# servers, the ceiling. 20 000 requests per client keep it short; read
# it with -benchtime 300000x. It skips itself on one CPU.
serve-scale-bench:
	$(GO) test -run '^$$' -bench ServeClients -benchtime 20000x ./internal/serve

# The price of the deadline watch (DESIGN.md §16.2): ns per poll of an
# armed owner — the clock read against the deadline, the non-blocking
# Done receive and the period's update — and polls per fib(16) under a
# far deadline, what a healthy served fib(16) pays instead of arming a
# timer. Then ns per wait-loop poll of a blocked join (DESIGN.md §12):
# unarmed, watched, with a watchdog, and with both.
watch-bench:
	$(GO) test -run '^$$' -bench 'WatchPoll|WaitPoll' -benchtime 100000x ./internal/core

# Every test that judges simulated behaviour, uncached: the nine
# simulated quick experiments and -stealsweep's sim grid against their
# goldens, woolrun -sim -stats and woolstat's table against theirs, and
# the simulator's counts against core's at one worker. A change meant
# to keep the simulator's behaviour passes it without -update.
SIM_GOLDENS = ^(TestQuickExperimentsRun|TestStealSweepSimGolden|TestStatsGolden|TestGolden|TestCountsMatchCoreAtOneWorker)$$
sim-goldens:
	$(GO) test -count=1 -run '$(SIM_GOLDENS)' ./internal/experiments ./cmd/woolbench \
		./cmd/woolrun ./cmd/woolstat ./internal/sim

# Where the linker put the serial references overhead_ratio divides by
# (main.serialRec for the served workloads, fibw.Serial for fib-tree)
# and the expanded bodies fib-tree and a served fib(16) run: each
# symbol's address in the benchmark binary, and that address mod 64.
# When overhead_ratio moves on a workload whose code did not change,
# run this on both checkouts and compare.
LAYOUT_SYMS = main.serialRec fibw.Serial fibw.fibExpanded ports.recExpanded
layout:
	bash bench/run.sh -spec >/dev/null
	@for s in $(LAYOUT_SYMS); do \
		set -- $$($(GO) tool nm -size -sort address .bench_build/woolbench | grep -E " ([^ ]*/)?$$s$$"); \
		test -n "$$1" || { echo "$$s: not in .bench_build/woolbench"; exit 1; }; \
		echo "$$s 0x$$1 mod64=$$((0x$$1 % 64)) size=$$2"; \
	done

# Go source lines outside bench/ (its own module), testdata/ and hidden
# directories: hand-written and generated non-test lines, then test
# lines. A file is generated when its first line starts with
# "// Code generated", so moving code into generated files shows here
# as a move, not a reduction.
loc:
	@find . -path './.*' -prune -o -path ./bench -prune -o -name testdata -prune -o \
		-name '*.go' -print | sort | xargs awk ' \
		FNR == 1 { kind = FILENAME ~ /_test\.go$$/ ? "test" : /^\/\/ Code generated/ ? "generated" : "hand-written" } \
		{ n[kind]++ } \
		END { printf "hand-written %d\ngenerated %d\ntest %d\n", n["hand-written"], n["generated"], n["test"] }'

# The ci job of .github/workflows/ci.yml, step for step (its lint and
# chaos jobs are `make lint` and `make chaos serve-soak fuzz-smoke`).
ci: fmt build vet test race-short trace-smoke stealsweep-smoke bench-quick bench-test wake-bench clock-bench watch-bench serve-scale-bench
