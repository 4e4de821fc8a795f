#!/bin/sh
# End-to-end gate for the counterexample-guided refinement loop.
#
# Two halves:
#   1. Offline must-repair case: `dpoaf_cli refine` over the seeded
#      defect pool of the driving pack must improve at least 80% of the
#      defective responses within 3 rounds, and every accepted repair
#      must land in a --store file that `report --pref-store` validates
#      as non-empty dpoaf-prefstore/1.
#   2. Serving path: a daemon with --journal and --pref-store takes a
#      loadgen burst whose mix includes refine traffic; the burst must
#      complete without errors, the journal must contain
#      serve.refine_round events (surfaced by `report --journal`), and
#      the harvested store must validate.
#
# Uses the built binary directly (not `dune exec`) so the daemon and the
# client never contend on the dune build lock.
set -eu

CLI=_build/default/bin/dpoaf_cli.exe
SOCK=$(mktemp -u /tmp/dpoaf-refine-check.XXXXXX.sock)
LOG=$(mktemp /tmp/dpoaf-refine-check.XXXXXX.log)
OUT=$(mktemp /tmp/dpoaf-refine-check.XXXXXX.out)
STORE_CLI=$(mktemp -u /tmp/dpoaf-refine-check.XXXXXX.cli.jsonl)
STORE_SRV=$(mktemp -u /tmp/dpoaf-refine-check.XXXXXX.srv.jsonl)
JOURNAL=$(mktemp -u /tmp/dpoaf-refine-check.XXXXXX.journal.jsonl)

GATE=refine-check
SCRATCH="$LOG $OUT $STORE_CLI* $STORE_SRV* $JOURNAL*"
. "$(dirname "$0")/daemon_lib.sh"

need_built "$CLI"

# ---- 1. offline must-repair case --------------------------------------

"$CLI" refine --domain driving --rounds 3 --store "$STORE_CLI" >"$OUT" 2>&1 || {
    echo "refine-check: dpoaf_cli refine failed" >&2
    cat "$OUT" >&2
    exit 1
}
SUMMARY=$(grep '^refine summary:' "$OUT") || {
    echo "refine-check: no refine summary line" >&2
    cat "$OUT" >&2
    exit 1
}
improved=$(echo "$SUMMARY" | sed -n 's/.*improved \([0-9]*\)\/[0-9]*.*/\1/p')
total=$(echo "$SUMMARY" | sed -n 's/.*improved [0-9]*\/\([0-9]*\).*/\1/p')
[ "${total:-0}" -gt 0 ] || {
    echo "refine-check: empty defect pool ($SUMMARY)" >&2
    exit 1
}
# the paper's bar: >= 80% of defective responses improve within 3 rounds
if [ $((improved * 5)) -lt $((total * 4)) ]; then
    echo "refine-check: only $improved/$total defects improved (< 80%)" >&2
    exit 1
fi

"$CLI" report --pref-store "$STORE_CLI" >"$OUT" 2>&1 || {
    echo "refine-check: harvested store failed validation" >&2
    cat "$OUT" >&2
    exit 1
}
grep -q 'harvested pairs' "$OUT" || {
    echo "refine-check: offline store is empty (no accepted repairs?)" >&2
    cat "$OUT" >&2
    exit 1
}

# ---- 2. serving path --------------------------------------------------

# the daemon pre-trains its model, then binds the socket
start_daemon --jobs 2 --seed 17 --journal "$JOURNAL" --pref-store "$STORE_SRV"

"$CLI" loadgen --socket "$SOCK" --rate 40 --duration 1 --seed 5 \
    --mix generate=0.2,verify=0.3,refine=0.5 | tee "$OUT"

LG=$(grep '^loadgen:' "$OUT") || {
    echo "refine-check: no loadgen summary line" >&2
    exit 1
}
completed=$(echo "$LG" | sed -n 's/.*completed=\([0-9]*\).*/\1/p')
proto_errors=$(echo "$LG" | sed -n 's/.*protocol_errors=\([0-9]*\).*/\1/p')
errors=$(echo "$LG" | sed -n 's/.* errors=\([0-9]*\).*/\1/p')
[ "${completed:-0}" -gt 0 ] || {
    echo "refine-check: expected completed > 0, got '${completed:-}'" >&2
    exit 1
}
[ "${proto_errors:-1}" -eq 0 ] || {
    echo "refine-check: expected protocol_errors = 0, got '${proto_errors:-}'" >&2
    exit 1
}
[ "${errors:-1}" -eq 0 ] || {
    echo "refine-check: expected errors = 0, got '${errors:-}'" >&2
    exit 1
}

# graceful shutdown flushes the journal and the store
stop_daemon

"$CLI" report --journal "$JOURNAL" >"$OUT" 2>&1 || {
    echo "refine-check: journal failed validation" >&2
    cat "$OUT" >&2
    exit 1
}
REFLINE=$(grep '^refine rounds:' "$OUT") || {
    echo "refine-check: report --journal shows no refine rounds" >&2
    cat "$OUT" >&2
    exit 1
}
rounds=$(echo "$REFLINE" | sed -n 's/^refine rounds: \([0-9]*\).*/\1/p')
[ "${rounds:-0}" -gt 0 ] || {
    echo "refine-check: zero refine rounds journaled ($REFLINE)" >&2
    exit 1
}

"$CLI" report --pref-store "$STORE_SRV" >"$OUT" 2>&1 || {
    echo "refine-check: served store failed validation" >&2
    cat "$OUT" >&2
    exit 1
}

echo "refine-check: OK ($improved/$total repaired offline; $REFLINE)"
