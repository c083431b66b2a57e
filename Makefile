GO ?= go
SMOKEDIR ?= .smoke
GATEDIR ?= .gate
DAEMONDIR ?= .daemon-smoke
# Pinned configuration of the committed perf-gate baseline
# (cmd/benchgate/testdata/baseline.json). Regenerating the baseline and
# gating a candidate must use the exact same knobs, or the comparison is
# between different experiments.
GATE_BENCH = fib
GATE_FLAGS = -bench $(GATE_BENCH) -invocations 6 -iterations 10 -seed 42 -noise quiet -json

.PHONY: all build test lint verify pins bench bench-smoke bench-gate bench-go bench-go-baseline chaos-soak daemon-smoke perfbench-check clean

# Pinned configuration of the wall-clock VM microbenchmarks. BENCH_vm.json
# is the committed register-tier baseline; bench-go compares a fresh run
# against it. ns/op deltas are informational (host-dependent), but
# allocs_per_op and bytes_per_op are gated: memory behavior is
# host-independent, so growth past both the relative and absolute floors
# fails the target.
BENCHGO_PKGS = ./internal/vm
BENCHGO_FLAGS = -run '^$$' -bench . -benchmem -benchtime 1s -count 3
BENCHGO_MEMGATE = -max-alloc-growth 10 -max-bytes-growth 25
# The statistics kernels (hierarchical bootstrap, steady-state
# classification) are gated the same way against BENCH_stats.json. -cpu
# is pinned to one value: benchfmt strips the -N suffix, so a -cpu list
# would merge entries, and the bootstrap's worker goroutines make its
# allocs/op depend on the worker count.
BENCHSTATS_PKGS = ./internal/stats
BENCHSTATS_FLAGS = $(BENCHGO_FLAGS) -cpu 2

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint fails on any file gofmt would change, then runs go vet plus
# benchlint, the repo's own methodology vet pass (sanctioned clock sites,
# allocation-free hot paths, no global rand), and lints every shipped
# MiniPy workload with the static-analysis subsystem: pylint -strict fails
# on any error or warning and on an uncertified workload (run it without
# the redirect to see the findings).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/benchlint ./cmd ./internal ./examples
	$(GO) run ./cmd/pylint -all -strict -q > /dev/null

# verify is the pre-merge gate: static analysis plus the full test suite
# under the race detector (the harness and supervisor are concurrent).
verify: lint
	$(GO) test -race ./...

# pins checks that three commands print their committed bytes: the full
# rigorous suite comparison (16 programs, interp vs JIT, 10x30 each), Figure
# 3, which runs the same pairs (core.Engine.RunPair), and every table and
# figure at 2x2, twice on one -resume directory, so that the second pass
# resumes every run. Each experiment simulates once and replays the noise,
# so this takes under a minute. The outputs stay in $(PINDIR) when a hash
# differs.
PINDIR ?= .pins
PIN_SUITE = 7e11333decc3ff24e6b110578c1261ca4f870056f435e10f2551e40ca185dacb
PIN_F3 = be3cfd05a406ba32d1c5f6c190763be664716d1091caf40a43ca7d23b3b5c650
PIN_ALL = f90171dfb8a3cd63ee19b6b98ce2120b7ee018039845368ee0c5c09f67bae148
PIN_ALL_FLAGS = -exp all -invocations 2 -iterations 2 -trials 20 -resume $(PINDIR)/resume

pins:
	rm -rf $(PINDIR) && mkdir -p $(PINDIR)
	$(GO) build -o $(PINDIR)/pybench ./cmd/pybench
	$(PINDIR)/pybench -suite > $(PINDIR)/suite.txt
	$(PINDIR)/pybench -exp F3 > $(PINDIR)/f3.txt
	$(PINDIR)/pybench $(PIN_ALL_FLAGS) > $(PINDIR)/all.txt
	$(PINDIR)/pybench $(PIN_ALL_FLAGS) > $(PINDIR)/all-resumed.txt
	printf '%s  %s\n' $(PIN_SUITE) suite.txt $(PIN_F3) f3.txt \
		$(PIN_ALL) all.txt $(PIN_ALL) all-resumed.txt | (cd $(PINDIR) && sha256sum --strict -c -)
	rm -rf $(PINDIR)

bench:
	$(GO) test -bench=. -benchmem

# perfbench-check vets and tests the repository benchmark. perfbench/ is
# its own Go module, so `go build ./...` and `go test ./...` at the root
# never compile it: without this target a harness API change that breaks
# the benchmark passes CI and fails only when the benchmark runs.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# bench-go runs the wall-clock interpreter microkernels (dispatch, call,
# attribute, global-lookup, iteration, probe-entry), prints per-benchmark
# ns/op deltas vs. the committed BENCH_vm.json baseline, and fails if any
# kernel's allocs/op or B/op grew past the memory gate — the register
# tier's unboxing win is locked in by this target. The statistics kernels
# follow, against BENCH_stats.json.
bench-go:
	$(GO) test $(BENCHGO_PKGS) $(BENCHGO_FLAGS) | \
		$(GO) run ./cmd/benchjson -baseline BENCH_vm.json $(BENCHGO_MEMGATE)
	$(GO) test $(BENCHSTATS_PKGS) $(BENCHSTATS_FLAGS) | \
		$(GO) run ./cmd/benchjson -baseline BENCH_stats.json $(BENCHGO_MEMGATE)

# bench-go-baseline regenerates BENCH_vm.json and BENCH_stats.json from
# the current tree with stamped provenance (commit, branch, go version,
# timestamp). Only run this deliberately: the committed files are the
# anchors that future PRs measure against.
bench-go-baseline:
	$(GO) test $(BENCHGO_PKGS) $(BENCHGO_FLAGS) | $(GO) run ./cmd/benchjson -out BENCH_vm.json
	$(GO) test $(BENCHSTATS_PKGS) $(BENCHSTATS_FLAGS) | $(GO) run ./cmd/benchjson -out BENCH_stats.json

# bench-smoke runs one tiny supervised benchmark end to end with tracing and
# metrics on, then validates that the emitted Chrome trace JSON parses.
bench-smoke:
	rm -rf $(SMOKEDIR) && mkdir -p $(SMOKEDIR)
	$(GO) run ./cmd/pybench -bench fib -mode interp \
		-invocations 2 -iterations 3 -seed 42 -noise quiet \
		-retries 2 -faults light \
		-trace $(SMOKEDIR)/smoke.trace.json -metrics > $(SMOKEDIR)/smoke.out
	$(GO) run ./cmd/tracecheck $(SMOKEDIR)/smoke.trace.json
	grep -q harness_invocations_total $(SMOKEDIR)/smoke.out
	rm -rf $(SMOKEDIR)

# bench-gate exercises the CI perf-regression gate end to end:
#   1. a fresh run of the pinned-seed experiment — in-process and under
#      process isolation — must be bit-identical to the committed baseline
#      (simulated times are host-independent, so this holds on any
#      machine); the in-process run also writes a trace, which must parse;
#   2. benchgate must pass the fresh candidate against the baseline;
#   3. benchgate must FAIL (non-zero) on the committed 20%-slowdown fixture.
bench-gate:
	rm -rf $(GATEDIR) && mkdir -p $(GATEDIR)
	$(GO) run ./cmd/pybench $(GATE_FLAGS) -trace $(GATEDIR)/seq.trace.json > $(GATEDIR)/seq.json
	$(GO) run ./cmd/tracecheck $(GATEDIR)/seq.trace.json
	$(GO) run ./cmd/benchgate -baseline cmd/benchgate/testdata/baseline.json \
		-candidate $(GATEDIR)/seq.json -equivalence
	$(GO) run ./cmd/pybench $(GATE_FLAGS) -isolate > $(GATEDIR)/iso.json
	$(GO) run ./cmd/benchgate -baseline $(GATEDIR)/seq.json \
		-candidate $(GATEDIR)/iso.json -equivalence
	$(GO) run ./cmd/benchgate -baseline cmd/benchgate/testdata/baseline.json \
		-candidate $(GATEDIR)/seq.json
	! $(GO) run ./cmd/benchgate -baseline cmd/benchgate/testdata/baseline.json \
		-candidate cmd/benchgate/testdata/slow20.json
	rm -rf $(GATEDIR)

# daemon-smoke exercises benchmarking-as-a-service end to end: build the
# real pybench and pybenchd binaries, start the daemon on a loopback port,
# submit a two-benchmark campaign through the Go client, stream it to
# completion, and assert the sample sets are bit-identical to one-shot
# `pybench -json` runs — then kill -9 the daemon mid-campaign (via the
# -chaos-crash-after hook), restart it, and assert the resumed campaign
# converges to the same bits. Daemon logs and traces land in $(DAEMONDIR)
# so CI can upload them when the gate fails.
daemon-smoke:
	rm -rf $(DAEMONDIR) && mkdir -p $(DAEMONDIR)
	PYBENCHD_SMOKE=1 PYBENCHD_SMOKE_ARTIFACTS=$(abspath $(DAEMONDIR)) \
		$(GO) test -count 1 -run TestDaemonSmoke -v ./cmd/pybenchd

# chaos-soak runs the crash-only invariant over a pinned seed matrix: one
# fault family per seed (worker kills / torn+corrupt journal writes /
# stalled children), every round interrupted by deliberate supervisor
# crashes with resume-from-journal. benchchaos exits non-zero the moment a
# merged sample set differs from the fault-free reference run, so this
# target is a hard CI gate, not a statistics check.
CHAOS_FLAGS = -bench fib -invocations 8 -iterations 5 -retries 8 -watchdog 2s

chaos-soak:
	$(GO) run ./cmd/benchchaos $(CHAOS_FLAGS) -seed 42 -faults 'kill=0.35' -crashes 2
	$(GO) run ./cmd/benchchaos $(CHAOS_FLAGS) -seed 43 -faults 'torn=0.3,badrecord=0.15,enospc=0.05' -crashes 3
	$(GO) run ./cmd/benchchaos $(CHAOS_FLAGS) -seed 44 -faults 'stall=0.25' -crashes 2

# clean removes every scratch directory any target or CI job can leave
# behind: the named scratch dirs, the daemon's default data dir, and the
# timestamped .smoke-*/.race-artifacts/.gate-artifacts dirs CI creates
# when it keeps failure artifacts.
clean:
	$(GO) clean ./...
	rm -rf $(SMOKEDIR) $(GATEDIR) $(DAEMONDIR) $(PINDIR) .pybenchd
	rm -rf .smoke-* .race-artifacts .gate-artifacts
