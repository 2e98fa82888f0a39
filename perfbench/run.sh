#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository. Build output goes to stderr, so
# the benchmark's result stays the last line of standard output.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
