GO ?= go

.PHONY: build test check fmt-check bench bench-speed timing bench-gate repro-check chaos-smoke serve-smoke serve-chaos resume-smoke obs-smoke fleet-smoke tenant-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt-check fails on any file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# check is the pre-merge gate: formatting, static vetting, the observability
# smoke, plus the race detector over the packages with concurrency (harness
# worker pool), the LSU hot path, and the memory image and interpreter the
# harness's concurrent variants share (one reference image read by both).
check: fmt-check serve-chaos resume-smoke obs-smoke fleet-smoke tenant-smoke
	$(GO) vet ./...
	$(GO) test -race -timeout 45m ./internal/harness ./internal/lsu ./internal/mem ./internal/isa ./internal/serve ./internal/gateway

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/lsu ./internal/pipeline

# bench-speed is the simulator-throughput check: the core hot-path
# microbenchmarks with allocation reporting (the per-cycle step, the
# observability hooks, whole-pipeline cycles/sec, the LSU candidate walk and
# region commit, the bitvec disambiguation kernels, the interpreter's SRV
# region and the FlexVec comparison), then a fresh timing report
# (BENCH_harness.json) carrying informational cycles_per_sec deltas against
# the previous run. Wall-clock numbers are machine-relative: eyeball them,
# gate on `make bench-gate`. The zero-allocation step, observability hook,
# bitvec kernels and interpreter region are asserted by TestStepAllocs,
# TestObserveCycleAllocs, TestMask128KernelAllocs and TestInterpRegionAllocs
# in `make test`.
bench-speed: build
	$(GO) test -run '^$$' -bench 'StepCheckpointOff|ObserveCycle|Pipeline' -benchmem ./internal/pipeline
	$(GO) test -run '^$$' -bench 'ExecLoad|ExecStore|CommitRegion' -benchmem ./internal/lsu
	$(GO) test -run '^$$' -bench 'Mask128' -benchmem ./internal/bitvec
	$(GO) test -run '^$$' -bench 'InterpRegion' -benchmem ./internal/isa
	$(GO) test -run '^$$' -bench 'FlexVecCompare' -benchmem ./internal/flexvec
	$(GO) run ./cmd/srvbench -timing BENCH_harness.json

# timing regenerates BENCH_harness.json (per-benchmark wall-clock of the
# experiment harness on this machine).
timing: build
	$(GO) run ./cmd/srvbench -timing BENCH_harness.json

# bench-gate runs the harness fresh and gates its simulated-cycle totals
# against the committed baseline: a >10% geomean regression fails the build.
# GATE_FLAGS narrows the run (e.g. GATE_FLAGS="-benchmarks is,bzip2"); the
# gate skips baseline benchmarks the fresh run did not cover.
GATE_FLAGS ?=
bench-gate: build
	$(GO) run ./cmd/srvbench -timing .bench-fresh.json $(GATE_FLAGS)
	$(GO) run ./cmd/benchgate BENCH_baseline.json .bench-fresh.json; \
	code=$$?; rm -f .bench-fresh.json; exit $$code

# repro-check is the reproduction oracle: the whole srvbench evaluation at
# seed 7 must print output byte-identical to results_reference.txt, and its
# -json form byte-identical to results_reference.json. The text form is
# checked twice: with two workers (the evaluation's phases overlap) and with
# one (everything runs serially, in a different order). Any byte of
# difference fails, with the diff shown.
repro-check: build
	$(GO) build -o .repro-check.bin ./cmd/srvbench
	@for run in "txt 2" "json 2" "txt 1"; do \
		set -- $$run; form=$$1; \
		flags="-seed 7 -parallel $$2"; [ $$form = json ] && flags="$$flags -json"; \
		./.repro-check.bin $$flags > .repro-check.out; \
		code=$$?; \
		if [ $$code -ne 0 ]; then echo "repro-check: srvbench $$flags exit $$code"; rm -f .repro-check.bin .repro-check.out; exit 1; fi; \
		if ! cmp -s .repro-check.out results_reference.$$form; then \
			diff results_reference.$$form .repro-check.out | head -40; \
			echo "repro-check: srvbench $$flags differs from results_reference.$$form"; \
			rm -f .repro-check.bin .repro-check.out; exit 1; fi; \
		echo "repro-check: ok (srvbench $$flags byte-identical to results_reference.$$form)"; \
	done; \
	rm -f .repro-check.bin .repro-check.out

# chaos-smoke is the resilience drill: fault-inject 20% of simulations on a
# single figure and require the run to complete with contained failures
# (exit code 3 — anything else, including a clean 0 or a fatal 1, fails).
chaos-smoke: build
	$(GO) build -o .chaos-smoke.bin ./cmd/srvbench
	./.chaos-smoke.bin -exp fig6 -chaos 0.2 -crashdir chaos-crashes > /dev/null; \
	code=$$?; rm -rf chaos-crashes .chaos-smoke.bin; \
	if [ $$code -ne 3 ]; then echo "chaos-smoke: exit $$code, want 3"; exit 1; fi; \
	echo "chaos-smoke: ok (completed with contained failures)"

# serve-smoke boots the srvd daemon on a loopback port, submits one
# simulation, and requires the identical resubmission to be a byte-identical
# cache hit (srvd -smoke runs the whole loop in-process and exits non-zero
# on any deviation).
serve-smoke: build
	$(GO) run ./cmd/srvd -smoke

# obs-smoke is the observability acceptance drill: boot the daemon on a
# loopback port, run one traced job, require every client/server/progress
# span to share a single TraceID, and require the Prometheus exposition to
# parse and account for the job.
obs-smoke: build
	$(GO) run ./cmd/srvd -obs-smoke

# resume-smoke is the checkpoint/resume acceptance drill, run under the race
# detector: a daemon SIGKILLed mid-simulation (machine checkpoints already
# journaled) must resume the job from its last checkpoint on restart and
# finish it byte-identical to an uninterrupted run.
resume-smoke: build
	$(GO) test -race -timeout 15m -run 'TestSIGKILLMidSimResume|TestPreemptAndResume' ./internal/serve

# fleet-smoke is the gateway acceptance drill, run under the race detector:
# an in-process 3-node fleet behind srvgw takes a batch of submissions,
# one node is drained and its listener torn down mid-queue, and the run
# must finish with zero lost jobs, results byte-identical to local
# execution, a gateway cache hit on resubmission, and one client-rooted
# trace spanning gateway and node.
fleet-smoke: build
	$(GO) run -race ./cmd/srvgw -smoke

# tenant-smoke is the multi-tenant isolation drill, run under the race
# detector: an in-process 2-node fleet behind srvgw takes a flooding tenant
# and an interactive tenant concurrently; the interactive jobs must finish
# (bit-identical to local execution) while the flood is still backlogged, a
# bursting tenant must be refused with an honest retry_after_ms, brownout
# must engage under saturation (visible in /v1/healthz, cache hits still
# served) and disengage after drain, and zero jobs may be lost.
tenant-smoke: build
	$(GO) run -race ./cmd/srvgw -tenant-smoke

# serve-chaos is the service-layer resilience drill, run under the race
# detector: remote submissions through a seeded fault-injecting transport
# must come back bit-identical, a SIGKILLed daemon must recover its journal
# on restart (completed results byte-identical from cache, interrupted jobs
# re-run), and SIGTERM must drain gracefully with exit 0.
serve-chaos: build
	$(GO) test -race -timeout 15m -run 'TestChaos|TestKillRestartRecovery|TestGracefulDrain|TestJournal' ./internal/serve
