# Daemon lifecycle shared by the gates that boot `dpoaf_cli serve`
# (serve_check.sh, scale_check.sh, obs_check.sh, refine_check.sh).
# Source it after setting:
#   GATE     message prefix, e.g. "serve-check"
#   CLI      the built dpoaf_cli.exe
#   SOCK     the daemon's Unix socket path
#   LOG      the daemon's log file
#   SCRATCH  space-separated paths (globs allowed) removed on exit
# It installs the cleanup trap: the daemon (and a background loadgen in
# LOADGEN_PID, if any) is killed and SCRATCH and SOCK are removed on any
# exit.

daemon_cleanup() {
    [ -n "${DAEMON_PID:-}" ] && kill "$DAEMON_PID" 2>/dev/null || true
    [ -n "${DAEMON_PID:-}" ] && wait "$DAEMON_PID" 2>/dev/null || true
    [ -n "${LOADGEN_PID:-}" ] && kill "$LOADGEN_PID" 2>/dev/null || true
    # word splitting and globbing of SCRATCH are wanted here
    # shellcheck disable=SC2086
    rm -rf "$SOCK" $SCRATCH
}
trap daemon_cleanup EXIT INT TERM

# need_built PATH: fail unless PATH is an executable build output
need_built() {
    [ -x "$1" ] || { echo "$GATE: $1 not built" >&2; exit 1; }
}

# start_daemon ARGS...: `serve --socket $SOCK ARGS...` in the background,
# logging to LOG; returns once the socket is bound (60 s budget).
start_daemon() {
    "$CLI" serve --socket "$SOCK" "$@" >"$LOG" 2>&1 &
    DAEMON_PID=$!
    i=0
    while [ ! -S "$SOCK" ]; do
        i=$((i + 1))
        if [ "$i" -gt 600 ]; then
            echo "$GATE: daemon did not bind $SOCK within 60s" >&2
            cat "$LOG" >&2
            exit 1
        fi
        kill -0 "$DAEMON_PID" 2>/dev/null || {
            echo "$GATE: daemon exited during startup" >&2
            cat "$LOG" >&2
            exit 1
        }
        sleep 0.1
    done
}

# stop_daemon [LABEL]: SIGTERM must drain, exit 0 and remove the socket
# file.  LABEL ("2-shard ", ...) qualifies the daemon in error messages.
stop_daemon() {
    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID" || {
        echo "$GATE: ${1:-}daemon exited non-zero on SIGTERM" >&2
        cat "$LOG" >&2
        exit 1
    }
    DAEMON_PID=
    if [ -e "$SOCK" ]; then
        echo "$GATE: socket file not removed on shutdown" >&2
        exit 1
    fi
}
