#!/usr/bin/env bash
# Build gpgs and the benchmark from source, then run the benchmark:
#
#   bash bench/suite/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every argument goes to `gpgs_bench run`.  Build output goes to stderr,
# so the last line on stdout is the benchmark's JSON result.  The dune
# cache is off so that the build reads and writes only inside the tree.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . ./bin/gpgs.exe ./bench/suite/gpgs_bench.exe 1>&2
exec ./_build/default/bench/suite/gpgs_bench.exe run "$@"
