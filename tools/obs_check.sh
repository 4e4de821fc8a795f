#!/bin/sh
# End-to-end gate for the ops plane: boot the daemon with an event
# journal, drive a loadgen burst, and require that (a) `stats` and
# `health` answer *while the daemon is under load*, in both JSON and
# Prometheus form, (b) the journal is valid JSONL that `report --journal`
# accepts and that records the burst, (c) the loadgen JSON report is
# parseable, and (d) the perf gate passes against a fresh baseline and
# fails when that baseline is artificially degraded.
#
# Uses the built binaries directly (not `dune exec`) so the daemon and
# the clients never contend on the dune build lock.
set -eu

CLI=_build/default/bin/dpoaf_cli.exe
PERF_GATE=_build/default/bench/perf_gate.exe
SOCK=$(mktemp -u /tmp/dpoaf-obs-check.XXXXXX.sock)
LOG=$(mktemp /tmp/dpoaf-obs-check.XXXXXX.log)
OUT=$(mktemp /tmp/dpoaf-obs-check.XXXXXX.out)
WORK=$(mktemp -d /tmp/dpoaf-obs-check.XXXXXX)
JOURNAL="$WORK/journal.jsonl"

GATE=obs-check
SCRATCH="$LOG $OUT $WORK"
. "$(dirname "$0")/daemon_lib.sh"

need_built "$CLI"
need_built "$PERF_GATE"

start_daemon --jobs 2 --seed 17 --journal "$JOURNAL"

# ---- ops verbs answered mid-load ------------------------------------
# Start a burst in the background, then query stats/health while it runs.
"$CLI" loadgen --socket "$SOCK" --rate 150 --duration 2 --seed 5 \
    --out "$WORK/loadgen.json" >"$WORK/loadgen.txt" 2>&1 &
LOADGEN_PID=$!
sleep 0.5

"$CLI" stats --socket "$SOCK" >"$OUT"
grep -q '"stats"' "$OUT" || {
    echo "obs-check: stats (json) missing the stats payload" >&2
    cat "$OUT" >&2
    exit 1
}
grep -q '"serve.completed"' "$OUT" || {
    echo "obs-check: stats (json) missing serve counters" >&2
    exit 1
}
grep -q '"gc.heap_words"' "$OUT" || {
    echo "obs-check: stats (json) missing runtime gauges" >&2
    exit 1
}

"$CLI" stats --socket "$SOCK" --format prom >"$OUT"
grep -q '^# TYPE dpoaf_serve_latency histogram' "$OUT" || {
    echo "obs-check: stats (prom) missing the latency histogram family" >&2
    cat "$OUT" >&2
    exit 1
}
grep -q '_bucket{le="+Inf"}' "$OUT" || {
    echo "obs-check: stats (prom) missing the +Inf bucket" >&2
    exit 1
}

"$CLI" health --socket "$SOCK" >"$OUT"
grep -q '"queue_depth"' "$OUT" && grep -q '"draining":false' "$OUT" || {
    echo "obs-check: health missing queue_depth/draining" >&2
    cat "$OUT" >&2
    exit 1
}

# strict flag parsing: unknown --format values are usage errors
if "$CLI" stats --socket "$SOCK" --format yaml >/dev/null 2>"$OUT"; then
    echo "obs-check: --format yaml should have been rejected" >&2
    exit 1
fi
grep -qi 'json' "$OUT" || {
    echo "obs-check: --format error does not list the valid values" >&2
    cat "$OUT" >&2
    exit 1
}

wait "$LOADGEN_PID" || {
    echo "obs-check: loadgen failed" >&2
    cat "$WORK/loadgen.txt" >&2
    exit 1
}
LOADGEN_PID=

completed=$(sed -n 's/.*completed=\([0-9]*\).*/\1/p' "$WORK/loadgen.txt")
[ "${completed:-0}" -gt 0 ] || {
    echo "obs-check: expected loadgen completions under the ops queries" >&2
    exit 1
}
grep -q '"schema":"dpoaf-loadgen\/1"\|"schema":"dpoaf-loadgen/1"' \
    "$WORK/loadgen.json" || {
    echo "obs-check: loadgen --out did not write the JSON report" >&2
    exit 1
}

# ---- graceful stop, then journal validity ---------------------------
stop_daemon

[ -s "$JOURNAL" ] || {
    echo "obs-check: journal $JOURNAL is missing or empty" >&2
    exit 1
}
# report --journal exits 1 on any malformed line: this IS the validator
"$CLI" report --journal "$JOURNAL" >"$OUT" || {
    echo "obs-check: report --journal rejected the journal" >&2
    cat "$OUT" >&2
    exit 1
}
# every replica announces itself at startup with serve.shard.up
for ev in daemon.start daemon.stop serve.shard.up serve.request serve.drain; do
    grep -q "$ev" "$OUT" || {
        echo "obs-check: journal report missing $ev events" >&2
        cat "$OUT" >&2
        exit 1
    }
done

# ---- perf gate on a fresh results series ----------------------------
# run from the work dir: the kernels section writes BENCH_kernels.json
# into the working directory, which must not be the repository's
RESULTS="$WORK/results"
ROOT=$(pwd)
(cd "$WORK" && "$ROOT/_build/default/bench/main.exe" --fast \
    --only kernels,serving --jobs 2 --results-dir "$RESULTS" \
    >"$WORK/bench.txt" 2>&1) || {
    echo "obs-check: bench run for the perf gate failed" >&2
    tail -20 "$WORK/bench.txt" >&2
    exit 1
}
[ -f "$RESULTS/latest.json" ] || {
    echo "obs-check: bench did not write $RESULTS/latest.json" >&2
    exit 1
}

# first run pins the baseline and passes
"$PERF_GATE" --results-dir "$RESULTS" | grep -q 'baseline recorded' || {
    echo "obs-check: perf gate did not record a fresh baseline" >&2
    exit 1
}
# second run compares latest against it and passes
"$PERF_GATE" --results-dir "$RESULTS" | grep -q 'perf-gate: pass' || {
    echo "obs-check: perf gate failed on an unchanged run" >&2
    exit 1
}
# degrade the baseline (pretend the past was 10x faster): must fail
sed 's/"fig8_loop_s":\([0-9.e+-]*\)/"fig8_loop_s":0.000001/' \
    "$RESULTS/baseline.json" >"$RESULTS/baseline.json.tmp"
mv "$RESULTS/baseline.json.tmp" "$RESULTS/baseline.json"
if "$PERF_GATE" --results-dir "$RESULTS" >"$OUT" 2>&1; then
    echo "obs-check: perf gate passed despite a degraded headline metric" >&2
    cat "$OUT" >&2
    exit 1
fi
grep -q 'REGRESSION fig8_loop_s' "$OUT" || {
    echo "obs-check: perf gate failure did not name the regressed metric" >&2
    cat "$OUT" >&2
    exit 1
}

echo "obs-check: OK (stats/health answered mid-load; journal valid; perf gate gates)"
