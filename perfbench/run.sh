#!/usr/bin/env bash
# Build the benchmark and the emask binary from source, then run one
# workload:  bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build chatter goes to stderr so the result stays the last stdout line.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . perfbench/bench.exe bin/emask.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
