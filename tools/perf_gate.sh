#!/bin/sh
# The perf gate (`make perf-gate`; the Makefile comment says what is
# pinned and why).  Runs each perfbench workload once, untraced, at
# seed 1 for 1 s, keeps the result line of each in _build/perf-gate/,
# compares them with bench/perf_baseline.json, and then self-tests the
# comparator: a copy of the baseline whose serve_hot alloc_kw_per_op is
# 5% lower must fail, and the failure must name that metric.
set -eu

GATE_EXE=_build/default/bench/perf_gate.exe
BASELINE=bench/perf_baseline.json
OUT=_build/perf-gate

[ -x "$GATE_EXE" ] || { echo "perf-gate: $GATE_EXE not built" >&2; exit 1; }
mkdir -p "$OUT"

for w in serve_hot finetune verify_cold; do
    bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 \
        >"$OUT/$w.out" 2>"$OUT/$w.log" || {
        echo "perf-gate: perfbench $w failed" >&2
        tail -20 "$OUT/$w.log" >&2
        exit 1
    }
    tail -n 1 "$OUT/$w.out" >"$OUT/$w.json"
done

"$GATE_EXE" "$BASELINE" "$OUT"

# ---- self-test: a 5% allocation regression must fail ----------------
awk '
    /^  "[a-z_]*": /     { workload = $1 }
    workload == "\"serve_hot\":" && /"alloc_kw_per_op"/ {
        match($0, /"value": [0-9.eE+-]+/)
        v = substr($0, RSTART + 9, RLENGTH - 9)
        $0 = substr($0, 1, RSTART - 1) "\"value\": " v * 0.95 \
            substr($0, RSTART + RLENGTH)
    }
    { print }' "$BASELINE" >"$OUT/degraded.json"
if cmp -s "$BASELINE" "$OUT/degraded.json"; then
    echo "perf-gate: self-test could not find serve_hot alloc_kw_per_op in $BASELINE" >&2
    exit 1
fi
if "$GATE_EXE" "$OUT/degraded.json" "$OUT" >"$OUT/self-test.txt" 2>&1; then
    echo "perf-gate: self-test: a 5% lower alloc_kw_per_op pin passed" >&2
    cat "$OUT/self-test.txt" >&2
    exit 1
fi
grep -q 'MISMATCH serve_hot alloc_kw_per_op' "$OUT/self-test.txt" || {
    echo "perf-gate: self-test: the failure does not name serve_hot alloc_kw_per_op" >&2
    cat "$OUT/self-test.txt" >&2
    exit 1
}
echo "perf-gate: self-test OK (a 5% lower serve_hot alloc_kw_per_op pin fails)"
