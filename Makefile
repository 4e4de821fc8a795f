.PHONY: all build test bench check lint mli-check det-lint analysis-check trace-check serve-check scale-check kernels-check domains-check perf-gate obs-check refine-check clean

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
# static-analysis and telemetry round-trips.  The paper benchmark runs in
# _build/bench-check, so the BENCH_*.json it writes stay out of the
# committed ones; tools/tree_check.sh fails the gate if anything in the
# checkout (tracked or untracked, not ignored) changed.
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
	$(MAKE) serve-check
	$(MAKE) scale-check
	$(MAKE) kernels-check
	$(MAKE) domains-check
	$(MAKE) obs-check
	$(MAKE) refine-check
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

# Fused-kernel gate: the bit-identity differential suites (fused vs
# unfused scoring, incremental vs full-context and from-scratch
# decoding, arena reuse vs fresh tapes, and the fused arena trainer vs
# the unfused fresh-tape one).  See docs/performance.md.
kernels-check:
	dune build test/test_tensor.exe test/test_lm.exe test/test_dpo.exe
	dune exec test/test_tensor.exe -- test 'fused kernels'
	dune exec test/test_tensor.exe -- test 'tape reuse'
	dune exec test/test_lm.exe -- test incremental
	dune exec test/test_dpo.exe -- test trainer -q

# Serving-layer round-trip: daemon on a temp socket, a loadgen burst,
# assert completions with zero protocol errors, graceful SIGTERM drain.
serve-check:
	dune build bin/dpoaf_cli.exe
	sh tools/serve_check.sh

# Serving-scale gate: a sharded daemon on both transports (Unix + TCP),
# per-shard health rows, a short saturation sweep, and response
# bit-identity across transports and shard counts.
scale-check:
	dune build bin/dpoaf_cli.exe
	sh tools/scale_check.sh

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

# Ops-plane gate: daemon with an event journal on a temp socket, stats
# and health queried mid-load (JSON and Prometheus), and the journal
# validated by `report --journal`.
obs-check:
	dune build bin/dpoaf_cli.exe
	sh tools/obs_check.sh

# Refinement gate: the offline must-repair case (>= 80% of the driving
# pack's seeded defects improve within 3 rounds, harvested store
# validates non-empty), then a daemon with --journal and --pref-store
# under a refine-weighted loadgen mix: zero errors, serve.refine_round
# events in the journal, and a valid harvested store after SIGTERM.
refine-check:
	dune build bin/dpoaf_cli.exe
	sh tools/refine_check.sh

# Domain-pack gate: every registered pack (dpoaf_cli domains) must clear
# the static analysis gates and run verify -> finetune -> simulate
# through --domain.  lib/domain needs no extra mli-check wiring: the
# lib/*/*.ml glob in tools/check_mli.sh already covers it.
domains-check:
	dune build bin/dpoaf_cli.exe
	sh tools/domains_check.sh

clean:
	dune clean
