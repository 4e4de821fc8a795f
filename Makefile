.PHONY: all build test bench check lint mli-check det-lint analysis-check trace-check serve-check scale-check kernels-check domains-check perf-gate obs-check refine-check clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# The one-stop gate: full build, the lint + interface hygiene gates, the
# whole test pyramid, a fast benchmark pass on two workers to exercise
# the parallel scheduler, then the static-analysis and telemetry
# round-trips.
check:
	dune build
	$(MAKE) lint
	$(MAKE) mli-check
	$(MAKE) det-lint
	dune runtest
	dune exec bench/main.exe -- --fast --jobs 2
	dune exec bench/perf_gate.exe
	$(MAKE) analysis-check
	$(MAKE) trace-check
	$(MAKE) serve-check
	$(MAKE) scale-check
	$(MAKE) kernels-check
	$(MAKE) domains-check
	$(MAKE) obs-check
	$(MAKE) refine-check

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

# Telemetry round-trip: record a traced 2-worker bench section, then
# validate the JSONL event log, the Perfetto trace and the metrics JSON.
trace-check:
	dune build bench/main.exe test/trace_validate.exe
	dune exec bench/main.exe -- --fast --only speedup --jobs 2 \
	  --trace _build/trace-check.jsonl --metrics-json _build/trace-check.metrics.json
	dune exec test/trace_validate.exe -- _build/trace-check.jsonl _build/trace-check.metrics.json
	dune exec bin/dpoaf_cli.exe -- report _build/trace-check.jsonl

# Fused-kernel gate: the bit-identity differential suites (fused vs
# unfused scoring, incremental vs full-context states, arena reuse vs
# fresh tapes), then a fast kernels benchmark pass, which itself exits
# non-zero if the optimized paths diverge from the reference.  The pass
# runs in _build/kernels-check so its BENCH_kernels.json and results
# series stay out of the committed ones.  See docs/performance.md.
kernels-check:
	dune build bench/main.exe test/test_tensor.exe test/test_lm.exe test/test_dpo.exe
	dune exec test/test_tensor.exe -- test 'fused kernels'
	dune exec test/test_tensor.exe -- test 'tape reuse'
	dune exec test/test_lm.exe -- test incremental
	dune exec test/test_dpo.exe -- test trainer -q
	mkdir -p _build/kernels-check
	cd _build/kernels-check && ../default/bench/main.exe --fast --only kernels \
	  --results-dir results

# Serving-layer round-trip: daemon on a temp socket, a loadgen burst,
# assert completions with zero protocol errors, graceful SIGTERM drain.
serve-check:
	dune build bin/dpoaf_cli.exe
	sh tools/serve_check.sh

# Serving-scale gate: a sharded daemon on both transports (Unix + TCP),
# per-shard health rows, a short saturation sweep, response bit-identity
# across shard counts, and the BENCH_serving_scale.json schema.
scale-check:
	dune build bin/dpoaf_cli.exe bench/main.exe
	sh tools/scale_check.sh

# Perf-regression gate: run the headline bench sections (fig8 loop +
# generation latency from `kernels`, batch p99 from `serving`, the fleet
# saturation knee max_rps_at_p99 from `serving_scale`, suite pass +
# explanation wall time per pack from `analysis`, wall time per repair
# round from `refine`) into the dated results series at bench/results/,
# then compare latest.json against the pinned baseline.json (worse than
# tolerance on any headline metric fails — 10% slower for wall-clock
# metrics, 50% lower for throughput metrics, whose knees swing with box
# load; first run pins a fresh baseline).  Re-pin
# deliberately with `dune exec bench/perf_gate.exe -- --rebase`.
perf-gate:
	dune build bench/main.exe bench/perf_gate.exe
	dune exec bench/main.exe -- --fast --only kernels,serving,serving_scale,analysis,refine --jobs 2
	dune exec bench/perf_gate.exe

# Ops-plane gate: daemon with an event journal on a temp socket, stats
# and health queried mid-load (JSON and Prometheus), journal validated
# by `report --journal`, and the perf gate exercised on a throwaway
# results series (fresh baseline passes, degraded baseline fails).
obs-check:
	dune build bin/dpoaf_cli.exe bench/main.exe bench/perf_gate.exe
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
