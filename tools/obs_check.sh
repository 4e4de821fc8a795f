#!/bin/sh
# End-to-end gate for the ops plane: boot the daemon with an event
# journal, drive a loadgen burst, and require that (a) `stats` and
# `health` answer *while the daemon is under load*, in both JSON and
# Prometheus form, (b) the journal is valid JSONL that `report --journal`
# accepts and that records the burst, and (c) the loadgen JSON report is
# parseable.
#
# Uses the built binaries directly (not `dune exec`) so the daemon and
# the clients never contend on the dune build lock.
set -eu

CLI=_build/default/bin/dpoaf_cli.exe
SOCK=$(mktemp -u /tmp/dpoaf-obs-check.XXXXXX.sock)
LOG=$(mktemp /tmp/dpoaf-obs-check.XXXXXX.log)
OUT=$(mktemp /tmp/dpoaf-obs-check.XXXXXX.out)
WORK=$(mktemp -d /tmp/dpoaf-obs-check.XXXXXX)
JOURNAL="$WORK/journal.jsonl"

GATE=obs-check
SCRATCH="$LOG $OUT $WORK"
. "$(dirname "$0")/daemon_lib.sh"

need_built "$CLI"

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

echo "obs-check: OK (stats/health answered mid-load; journal valid)"
