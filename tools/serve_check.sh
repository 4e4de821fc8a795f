#!/bin/sh
# End-to-end gate for the serving layer: boot the daemon on a temporary
# socket, fire a loadgen burst at it, and require that (a) requests
# actually completed and (b) no line failed to parse on either side.
# The daemon must also shut down gracefully on SIGTERM and remove its
# socket file.
#
# Uses the built binary directly (not `dune exec`) so the daemon and the
# client never contend on the dune build lock.
set -eu

CLI=_build/default/bin/dpoaf_cli.exe
SOCK=$(mktemp -u /tmp/dpoaf-serve-check.XXXXXX.sock)
LOG=$(mktemp /tmp/dpoaf-serve-check.XXXXXX.log)
REPORT=$(mktemp /tmp/dpoaf-serve-check.XXXXXX.report)

GATE=serve-check
SCRATCH="$LOG $REPORT"
. "$(dirname "$0")/daemon_lib.sh"

need_built "$CLI"

# the daemon pre-trains its model, then binds the socket
start_daemon --jobs 2 --seed 17

"$CLI" loadgen --socket "$SOCK" --rate 100 --duration 1 --seed 5 | tee "$REPORT"

SUMMARY=$(grep '^loadgen:' "$REPORT") || {
    echo "serve-check: no loadgen summary line" >&2
    exit 1
}
completed=$(echo "$SUMMARY" | sed -n 's/.*completed=\([0-9]*\).*/\1/p')
proto_errors=$(echo "$SUMMARY" | sed -n 's/.*protocol_errors=\([0-9]*\).*/\1/p')
errors=$(echo "$SUMMARY" | sed -n 's/.* errors=\([0-9]*\).*/\1/p')

[ "${completed:-0}" -gt 0 ] || {
    echo "serve-check: expected completed > 0, got '${completed:-}'" >&2
    exit 1
}
[ "${proto_errors:-1}" -eq 0 ] || {
    echo "serve-check: expected protocol_errors = 0, got '${proto_errors:-}'" >&2
    exit 1
}
[ "${errors:-1}" -eq 0 ] || {
    echo "serve-check: expected errors = 0, got '${errors:-}'" >&2
    exit 1
}

# graceful shutdown: SIGTERM drains and removes the socket file
stop_daemon
grep -q 'daemon stopped' "$LOG" || {
    echo "serve-check: daemon did not report a graceful stop" >&2
    cat "$LOG" >&2
    exit 1
}

echo "serve-check: OK ($SUMMARY)"
