.PHONY: all build test bench check lint mli-check det-lint analysis-check trace-check daemon-check kernels-check domains-check perf-gate clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# The one-stop gate: full build, the lint + interface hygiene gates, the
# whole test pyramid, a fast pass of the paper benchmark on two workers
# to exercise the parallel scheduler, the perf gate, then the
# static-analysis, telemetry and daemon round-trips.  The paper benchmark
# runs in _build/bench-check, so the BENCH_*.json it writes stay out of
# the committed ones; tools/tree_check.sh fails the gate if anything in
# the checkout (tracked or untracked, not ignored) changed.
check:
	sh tools/tree_check.sh save _build/check-tree.txt
	dune build
	$(MAKE) lint
	$(MAKE) mli-check
	$(MAKE) det-lint
	dune runtest
	dune build bench/main.exe
	mkdir -p _build/bench-check
	cd _build/bench-check && ../default/bench/main.exe --fast --jobs 2
	$(MAKE) perf-gate
	$(MAKE) analysis-check
	$(MAKE) trace-check
	$(MAKE) daemon-check
	$(MAKE) kernels-check
	$(MAKE) domains-check
	sh tools/tree_check.sh compare _build/check-tree.txt

# Rebuild the libraries with the unused-code warning family (26/27,
# 32..35, 69) promoted to errors — see lib/dune's `lint` env profile.
lint:
	dune build --profile lint

# Every lib/**/*.ml must publish a matching .mli.
mli-check:
	sh tools/check_mli.sh

# Determinism source lint: ban Random.self_init, Obj.magic, wall clocks
# and Hashtbl iteration order in lib/ (allowlist in
# tools/det_lint_allow with per-entry justifications).
det-lint:
	sh tools/det_lint.sh

# Static sanity round-trip over EVERY registered pack: analyzer with
# the whole-suite pass (--suite), a clean exit (no error-severity
# diagnostics), JSON artifact shapes validated (pack name in each
# header), and the docs drift gate (emitted diagnostic codes vs. the
# docs/analysis.md catalogue, both directions).
analysis-check:
	dune build bin/dpoaf_cli.exe test/analysis_validate.exe
	sh tools/analysis_check.sh

# Telemetry round-trip: record a traced 2-worker bench section (the Fig 11
# rollouts: sim.evaluate / sim.rollouts / sim.score spans across pool
# workers), then validate the JSONL event log, the Perfetto trace and
# the metrics JSON.
trace-check:
	dune build bench/main.exe test/trace_validate.exe
	dune exec bench/main.exe -- --fast --only fig11 --jobs 2 \
	  --trace _build/trace-check.jsonl --metrics-json _build/trace-check.metrics.json
	dune exec test/trace_validate.exe -- _build/trace-check.jsonl _build/trace-check.metrics.json
	dune exec bin/dpoaf_cli.exe -- report _build/trace-check.jsonl

# Hand-written gradient gate: the bit-identity differential suites.
# Closed-form pre-training equals the tape oracle in every epoch's loss
# and every trained tensor (test_lm pretrain); incremental decoding equals
# full-context and from-scratch decoding (test_lm incremental); the
# frozen-feature DPO trainer and REINFORCE step equal their tape oracles
# (test_dpo).  The qcheck properties cover Bow and GRU models; the tape
# and its primitive-op composition live in test/oracle.  See
# docs/performance.md.
kernels-check:
	dune build test/test_lm.exe test/test_dpo.exe
	dune exec test/test_lm.exe -- test pretrain
	dune exec test/test_lm.exe -- test incremental
	dune exec test/test_dpo.exe -- test trainer
	dune exec test/test_dpo.exe -- test reinforce

# Perf gate: one short untraced perfbench run per workload at seed 1,
# compared with the pinned bench/perf_baseline.json, then a self-test
# that the comparator fails, naming the metric, on a copy of the
# baseline whose serve_hot alloc_kw_per_op is 5% lower.  It pins only
# what reads the same at any run length at seed 1: every workload's
# answer checks (correct, no failed operation), serve_hot
# alloc_kw_per_op (within 1%), spec_sat on serve_hot and finetune
# (within 1e-9) and peak_rss_mb on serve_hot and finetune (at most 20%
# above the pin, BENCHMARK.json's bound).  Wall time (setup_s,
# ms_per_op), verify_cold's allocation and RSS and finetune's allocation
# move with the run length or the host; they are judged by the
# BENCHMARK.json steadiness protocol (repeated 15 s runs against the
# parent commit), not here.  On an intended change, paste the baseline
# the gate prints into bench/perf_baseline.json.
perf-gate:
	dune build bench/perf_gate.exe
	sh tools/perf_gate.sh

# Daemon gate: test/daemon_gate.exe spawns the built dpoaf_cli for every
# verb that talks to a daemon.  Offline, `refine` must repair >= 80% of the
# driving pack's seeded defects into a valid non-empty store.  Boot A
# (2 shards, Unix + TCP, --journal, --pref-store): zero-error loadgen
# bursts (default and refine-weighted mix), stats/health over both
# transports mid-load (JSON, Prometheus, per-shard rows, --format yaml
# rejected), identical Unix and TCP dumps, a saturation sweep, then the
# journal's events and the served store.  Boot B (1 shard, 2 workers): the
# same dump, and a client that hangs up unread leaves it serving.  Every
# SIGTERM must drain within 30 s, exit 0 and remove the socket.
daemon-check:
	dune build bin/dpoaf_cli.exe test/daemon_gate.exe
	./_build/default/test/daemon_gate.exe

# Domain-pack gate: every registered pack (dpoaf_cli domains) must clear
# the static analysis gates and run verify -> finetune -> simulate
# through --domain.  lib/domain needs no extra mli-check wiring: the
# lib/*/*.ml glob in tools/check_mli.sh already covers it.
domains-check:
	dune build bin/dpoaf_cli.exe
	sh tools/domains_check.sh

clean:
	dune clean
