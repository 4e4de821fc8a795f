#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the result stays the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artifact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
