#!/usr/bin/env bash
# Build the benchmark and the cosynth binary from source, then run the
# benchmark; every argument passes through to perf.exe. Run it from the
# root of a checkout:
#
#   bash bench/perf/run.sh --workload translate --seed 1000 --seconds 20 --trace 0
#
# The last line of standard output is the result (see README.md).
set -euo pipefail

# Keep every build product inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe ./bin/cosynth_cli.exe >&2
exec ./_build/default/bench/perf/perf.exe \
  --cosynth ./_build/default/bin/cosynth_cli.exe "$@"
