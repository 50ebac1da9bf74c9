#!/bin/sh
# Build the secdb server and the load generator from this checkout, then run
# one workload:
#
#   sh secbench/run.sh --workload oltp-point --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line on stdout is the JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "secbench: no secdb source tree next to secbench/" >&2
  exit 2
fi
# no shared build cache: everything the build writes stays in _build
DUNE_CACHE=disabled dune build --root . bin/secdb_cli.exe secbench/loadgen.exe >&2
exec ./_build/default/secbench/loadgen.exe --cli ./_build/default/bin/secdb_cli.exe "$@"
