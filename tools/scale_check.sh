#!/bin/sh
# End-to-end gate for the sharded serving fleet: boot a 2-shard daemon
# with both transports, and require that (a) the per-shard health rows
# and the ops plane answer on the Unix socket AND the TCP listener,
# (b) a loadgen dump is byte-identical across the two transports,
# (c) a short saturation sweep finds a knee and writes the sweep JSON,
# (d) a 1-shard, 2-worker daemon returns a byte-identical dump —
# sharding and worker count move only queueing, never replies.
#
# Uses the built binaries directly (not `dune exec`) so the daemon and
# the clients never contend on the dune build lock.
set -eu

CLI=_build/default/bin/dpoaf_cli.exe
SOCK=$(mktemp -u /tmp/dpoaf-scale-check.XXXXXX.sock)
LOG=$(mktemp /tmp/dpoaf-scale-check.XXXXXX.log)
OUT=$(mktemp /tmp/dpoaf-scale-check.XXXXXX.out)
WORK=$(mktemp -d /tmp/dpoaf-scale-check.XXXXXX)

GATE=scale-check
SCRATCH="$LOG $OUT $WORK"
. "$(dirname "$0")/daemon_lib.sh"

need_built "$CLI"

# ---- 2-shard fleet, both transports ---------------------------------
start_daemon --shards 2 --tcp-port 0 --jobs 1 --seed 17

# the ephemeral TCP port is announced on startup
i=0
while ! grep -q 'tcp listener on 127.0.0.1:' "$LOG"; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "scale-check: daemon did not announce its TCP port" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done
PORT=$(sed -n 's/.*tcp listener on 127.0.0.1:\([0-9]*\).*/\1/p' "$LOG" | head -1)
[ -n "$PORT" ] || { echo "scale-check: could not parse the TCP port" >&2; exit 1; }

# per-shard health rows on the Unix socket...
"$CLI" health --socket "$SOCK" >"$OUT"
for want in '"shards"' '"shard0"' '"shard1"'; do
    grep -q "$want" "$OUT" || {
        echo "scale-check: health missing $want" >&2
        cat "$OUT" >&2
        exit 1
    }
done
# ...and the same ops plane over TCP
"$CLI" health --tcp-port "$PORT" >"$OUT"
grep -q '"shard1"' "$OUT" || {
    echo "scale-check: health over TCP missing the shard rows" >&2
    cat "$OUT" >&2
    exit 1
}
"$CLI" stats --tcp-port "$PORT" >"$OUT"
grep -q '"serve.completed"' "$OUT" || {
    echo "scale-check: stats over TCP missing serve counters" >&2
    cat "$OUT" >&2
    exit 1
}

# transport identity: the same seeded burst over Unix and TCP dumps the
# same bytes (timings zeroed, id-sorted)
"$CLI" loadgen --socket "$SOCK" --rate 80 --duration 1 --seed 5 \
    --dump "$WORK/unix.dump" >/dev/null
"$CLI" loadgen --tcp-port "$PORT" --rate 80 --duration 1 --seed 5 \
    --dump "$WORK/tcp.dump" >/dev/null
cmp -s "$WORK/unix.dump" "$WORK/tcp.dump" || {
    echo "scale-check: Unix and TCP dumps differ" >&2
    diff "$WORK/unix.dump" "$WORK/tcp.dump" | head -5 >&2
    exit 1
}

# saturation sweep: a permissive budget so even a loaded CI box finds a
# sustained level; the knee and its achieved rps land in the JSON report
"$CLI" loadgen --socket "$SOCK" --sweep 40:40:200 --sweep-p99-ms 200 \
    --duration 0.5 --seed 5 --out "$WORK/sweep.json" >"$WORK/sweep.txt"
for want in '"mode":"sweep"' '"knee_offered_rps"' '"max_rps_at_p99"' '"levels"'; do
    grep -q "$want" "$WORK/sweep.json" || {
        echo "scale-check: sweep JSON missing $want" >&2
        cat "$WORK/sweep.json" >&2
        exit 1
    }
done
grep -q 'sweep:' "$WORK/sweep.txt" || {
    echo "scale-check: sweep printed no per-level summary" >&2
    cat "$WORK/sweep.txt" >&2
    exit 1
}

stop_daemon "2-shard "

# ---- shard-count / worker-count identity -----------------------------
# a 1-shard, 2-worker daemon (same seed) must dump the same bytes:
# routing and the scheduler move only queueing and cache temperature
start_daemon --shards 1 --jobs 2 --seed 17

"$CLI" loadgen --socket "$SOCK" --rate 80 --duration 1 --seed 5 \
    --dump "$WORK/oneshard.dump" >/dev/null
cmp -s "$WORK/unix.dump" "$WORK/oneshard.dump" || {
    echo "scale-check: 1-shard dump differs from the 2-shard dump" >&2
    diff "$WORK/unix.dump" "$WORK/oneshard.dump" | head -5 >&2
    exit 1
}

stop_daemon "1-shard "

echo "scale-check: OK (2-shard fleet on both transports; dumps identical across transports and shard counts; sweep JSON valid)"
