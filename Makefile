# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race bench bench-compare ci fig6 results clean

all: build test

# perfbench/ is a separate module, so the root `go vet ./...` never builds
# it; vetting it here catches an API change that breaks the benchmark.
build:
	$(GO) build ./...
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/experiments/ ./internal/sim/ ./internal/sched/ ./internal/controller/ ./internal/faults/ ./internal/telemetry/

# Pre-merge gate (see README): formatting, vet, build, full race suite,
# the controller and experiment suites repeated at GOMAXPROCS 1, 2 and 4
# (their resume and metrics comparisons must not depend on how a parallel
# search splits its candidates), the weak-duality screening tests at the
# same three settings (a screened search must match an unscreened one and
# skip the same candidates at every worker count), the pivot-kernel
# bit-identity tests at the same settings (split, batched and eager
# eliminations and skipped dead columns must not change any LP result or
# α), the zone solver's
# cut-pool retention and parallelism-invariance tests at the same settings
# (a cap sequence on retained cuts must match fresh solvers within Tol and
# be bit-identical at every fan-out width), the full differential
# sweep against the textbook simplex (600 seeded LPs with KKT
# certificates, behind the slow tag), a 1k-node multi-zone fleet solve
# with invariant checks (also behind the slow tag), short fuzz smokes on
# the workload parser, the LU factorizer (SolveMatrix held bit for bit to
# full per-column solves), the per-component thermal model
# (held bit for bit to one dense factorization), the checkpoint journal decoder,
# the -faults level parser, the scheduler's dispatch index (held to the
# candidate scan on decoded data centers and task streams), the
# controller's resume boundary (damaged checkpoints must fail with an error,
# never a panic), the sweep's journal replay (CRC-valid records with
# arbitrary payloads must recover or fail as corrupt, never panic; its
# seeds are real ~30 KB journal records, too long for the quadratic input
# minimizer, so minimization is off), the concave-envelope builder and the
# knapsack LP (held to its greedy optimum) and the small-DC first-step
# pipeline (every plan passes assign.Verify or the solve fails with a typed
# solvererr, never a panic), the DataCenter JSON boundary (decode, Validate,
# thermal model and a coarse first-step solve must fail with an error, never
# a panic; its ~20 KB seed is too long for the minimizer, so minimization is
# off), the simplex and fleet-scaling
# performance gates at 1x into /tmp (each family runs 5 times and is
# gated on its medians; the fleet family includes the
# zone-warm-resolve 0-allocs gate and the 10k Stage-3 readback's
# 16 B/core cap), the paper-scale scheduler build's 64 B/core cap (the
# scheduler keeps its plan by core group), the benchmark harness's own tests (perfbench/ is a separate module, so the
# root `go test ./...` never builds it; an API change that breaks the
# benchmark fails here), a short instrumented degraded run whose exported
# time series must pass cmd/tscheck's schema validation and whose Chrome trace must pass
# `tapo trace lint`, a forced-ladder smoke (a 1ns
# solve budget forces the ladder off the warm rung; the exported series must
# pass cmd/tscheck and at least one row must name a rung other than warm),
# and a crash-recovery
# smoke: a checkpointed sweep is killed mid-run after its 5th durable
# commit, then resumed, and the resumed table must byte-match an
# uninterrupted run's.
ci:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -count=3 -cpu 1,2,4 ./internal/controller ./internal/experiments
	$(GO) test -count=1 -cpu 1,2,4 -run 'Screen|DualBound|OutletBound|BoundZeroAllocs|KernelBitIdentical|CutPoolRetention|ParallelismInvariance' \
		./internal/linprog ./internal/tempsearch ./internal/assign ./internal/zones
	$(GO) test -tags slow -run TestDifferentialFull ./internal/linprog
	$(GO) test -tags slow -run TestFleetSmoke1k ./internal/zones
	$(GO) test -run '^$$' -fuzz FuzzLoadTasks -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzFactorLU -fuzztime 10s ./internal/linalg
	$(GO) test -run '^$$' -fuzz FuzzNewMatchesDense -fuzztime 10s ./internal/thermal
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime 10s ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzParseLevels -fuzztime 10s ./cmd/tapo
	$(GO) test -run '^$$' -fuzz FuzzScheduleIndex -fuzztime 10s ./internal/sched
	$(GO) test -run '^$$' -fuzz FuzzResumeCheckpoint -fuzztime 10s ./internal/controller
	$(GO) test -run '^$$' -fuzz FuzzSweepReplay -fuzztime 10s -fuzzminimizetime 0 ./internal/experiments
	$(GO) test -run '^$$' -fuzz FuzzConcaveEnvelope -fuzztime 10s ./internal/pwl
	$(GO) test -run '^$$' -fuzz FuzzKnapsackLP -fuzztime 10s ./internal/linprog
	$(GO) test -run '^$$' -fuzz FuzzPipelineSmallDC -fuzztime 10s ./internal/assign
	$(GO) test -run '^$$' -fuzz FuzzReadChromeTrace -fuzztime 10s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzDataCenterJSON -fuzztime 10s -fuzzminimizetime 0 .
	$(call bench-gate,$(SIMPLEX_BENCH),1x,/tmp/tapo-ci-bench-simplex.json,5)
	$(call bench-gate,$(FLEET_BENCH),$(FLEETBENCHTIME),/tmp/tapo-ci-bench-fleet.json,5)
	$(call bench-gate,$(SCHED_BENCH),20x,/tmp/tapo-ci-bench-sched.json,5)
	cd perfbench && $(GO) test -count=1 ./...
	$(GO) run ./cmd/tapo degraded -trials 1 -nodes 10 -cracs 2 -horizon 30 \
		-faults 0:0,2:1 -metrics-out /tmp/tapo-ci-metrics.jsonl \
		-trace-out /tmp/tapo-ci-trace.json > /dev/null
	$(GO) run ./cmd/tscheck /tmp/tapo-ci-metrics.jsonl
	$(GO) run ./cmd/tapo trace lint /tmp/tapo-ci-trace.json
	$(GO) run ./cmd/tapo degraded -trials 1 -nodes 10 -cracs 2 -horizon 30 \
		-faults 0:0,2:1 -solve-timeout 1ns \
		-metrics-out /tmp/tapo-ci-ladder.jsonl > /dev/null
	$(GO) run ./cmd/tscheck /tmp/tapo-ci-ladder.jsonl
	if ! grep -o '"rung":"[^"]*"' /tmp/tapo-ci-ladder.jsonl | grep -qv '"rung":"warm"'; then \
		echo "forced-ladder smoke: no epoch left the warm rung"; exit 1; fi
	$(GO) build -o /tmp/tapo-ci ./cmd/tapo
	rm -rf /tmp/tapo-ci-ck
	/tmp/tapo-ci degraded -trials 1 -nodes 10 -cracs 2 -horizon 30 \
		-faults 0:0,2:1 > /tmp/tapo-ci-clean.txt
	if /tmp/tapo-ci degraded -trials 1 -nodes 10 -cracs 2 -horizon 30 \
		-faults 0:0,2:1 -checkpoint /tmp/tapo-ci-ck -crash-after 5 \
		> /dev/null 2>&1; then \
		echo "crash-recovery smoke: -crash-after did not crash"; exit 1; fi
	/tmp/tapo-ci degraded -trials 1 -nodes 10 -cracs 2 -horizon 30 \
		-faults 0:0,2:1 -resume /tmp/tapo-ci-ck > /tmp/tapo-ci-resumed.txt
	diff /tmp/tapo-ci-clean.txt /tmp/tapo-ci-resumed.txt

bench:
	$(GO) test -bench=. -benchmem ./...

# Performance gates. The simplex pass records the flat-vs-legacy and
# allocation subbenchmarks, then fails if the warm scratch path allocates
# or the flat solver regresses below the legacy rebuild path. The fleet pass
# records the 1k/10k-node zone-decomposed solves and fails if ns/node
# grows super-linearly with fleet size, and records the 1k/10k Stage-3
# readback and fails if the 10k point allocates more than 16 B/core. The
# scheduler pass records the paper-scale second-step scheduler build and
# fails if it allocates more than 64 B/core. bench-compare records the tracked
# baselines BENCH_simplex.json, BENCH_fleet.json and BENCH_sched.json, the
# simplex family at the default 3x, which smooths scheduler noise; `make ci`
# runs the same gates into /tmp, the simplex family at 1x, leaving the
# baselines alone.
BENCHTIME ?= 3x
FLEETBENCHTIME ?= 1x
SIMPLEX_BENCH = 'ThreeStagePaperScale/(legacy-rebuild|solver-serial$$|solver-parallel|solver-warm-epoch|warm-resolve-allocs)'
FLEET_BENCH = 'FleetStage1|FleetReadback'
SCHED_BENCH = 'SchedulerNew'
# $(call bench-gate,regex,benchtime,file,count) runs one benchmark family
# count times into file as JSON and gates it with cmd/benchcheck, which
# folds repeated rows into their median. `make ci` runs both families 5
# times: each 1x point is one short solve, so host drift alone can push a
# single sample past a bound (the fleet family's 10k/1k ns/node ratio, the
# simplex family's flat-vs-legacy ratio).
bench-gate = $(GO) test -run '^$$' -bench $(1) -benchtime $(2) -count $(4) -json . > $(3) && $(GO) run ./cmd/benchcheck $(3)
bench-compare:
	$(call bench-gate,$(SIMPLEX_BENCH),$(BENCHTIME),BENCH_simplex.json,1)
	$(call bench-gate,$(FLEET_BENCH),$(FLEETBENCHTIME),BENCH_fleet.json,1)
	$(call bench-gate,$(SCHED_BENCH),20x,BENCH_sched.json,1)

# The paper's headline experiment at full scale (25 trials, 150 nodes,
# 3 CRACs); takes ~10 minutes on one core.
fig6:
	$(GO) run ./cmd/tapo fig6 -trials 25 -nodes 150 -cracs 3

# Regenerate every recorded experiment in results/ (slow).
results:
	$(GO) build -o /tmp/tapo ./cmd/tapo
	/tmp/tapo bounds   -nodes 150 -cracs 3                         > results/bounds.txt
	/tmp/tapo ablation -trials 5 -nodes 150 -cracs 3               > results/ablation.txt
	/tmp/tapo simulate -trials 5 -nodes 150 -cracs 3 -horizon 120  > results/simulate.txt
	/tmp/tapo minpower -nodes 150 -cracs 3                         > results/minpower.txt
	/tmp/tapo policies -trials 3 -nodes 150 -cracs 3 -horizon 120  > results/policies.txt
	/tmp/tapo dynamic  -nodes 150 -cracs 3                         > results/dynamic.txt
	/tmp/tapo compare  -trials 5 -nodes 150 -cracs 3               > results/compare.txt
	/tmp/tapo burst    -trials 3 -nodes 150 -cracs 3 -horizon 120  > results/burst.txt
	/tmp/tapo sweep -kind powercap -trials 5 -nodes 60 -cracs 3    > results/sweep_powercap.txt
	/tmp/tapo sweep -kind psi      -trials 5 -nodes 60 -cracs 3    > results/sweep_psi.txt
	/tmp/tapo sweep -kind vprop    -trials 5 -nodes 60 -cracs 3    > results/sweep_vprop.txt
	/tmp/tapo sweep -kind static   -trials 5 -nodes 60 -cracs 3    > results/sweep_static.txt
	/tmp/tapo sweep -kind hetero   -trials 5 -nodes 60 -cracs 3    > results/sweep_hetero.txt

clean:
	$(GO) clean ./...
