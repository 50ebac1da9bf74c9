#!/usr/bin/env bash
# Full CI gate. Run from the repository root:
#
#   ci/run.sh
#
# Mirrors .github/workflows/ci.yml so the same gate runs locally and in CI.
# The dev profile keeps dune's default warnings-as-errors on the libraries.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n=== %s\n' "$*"; }

step "hygiene: no build artifacts tracked by git"
bad=$(git ls-files | grep -E '(^|/)_build/|\.install$|(^|/)BENCH_[A-Za-z0-9_]*\.json$' || true)
if [ -n "$bad" ]; then
  echo "generated artifacts are tracked by git:" >&2
  echo "$bad" >&2
  exit 1
fi

step "build"
dune build

step "unit + property + cram suite"
dune runtest

step "known-answer vectors"
dune build @kat

step "perf equivalence + planner byte-identity checks"
# includes the planner gate: every candidate plan (forced via exec_plan),
# the adaptive choice and the lock-free snapshot path must return
# byte-identical rows for point, range, join, order-by, group-by, OR/NOT
# and UPDATE/DELETE-by-unindexed-column shapes, each at its pinned count
# of decrypted cells
dune exec bench/perf.exe -- --fast --check

step "perf timing pass (runs once; asserts no timing bound, only that its JSON parses)"
# from a scratch directory, so no BENCH_perf.json lands in the tree
perf_exe="$PWD/_build/default/bench/perf.exe"
perf_dir=$(mktemp -d)
trap 'rm -rf "$perf_dir"' EXIT
(cd "$perf_dir" && "$perf_exe" --fast && python3 -m json.tool BENCH_perf.json >/dev/null)

step "leakage bounds (range index attack bench, fixed seeds)"
dune build @leakage

step "crash-safety matrix (explicit rerun of the durability suites)"
# alcotest only fails a filter that selects nothing at all, so a renamed
# suite would silently drop out of the rerun: each must list a test
crash_suites="storage:crash storage:fsck integration:paged repl:crash"
listed=$(dune exec -- test/test_main.exe list --color=never)
for suite in $crash_suites; do
  if ! grep -q "^$suite[[:space:]]" <<<"$listed"; then
    echo "crash-matrix suite $suite lists no test" >&2
    exit 1
  fi
done
dune exec -- test/test_main.exe test "${crash_suites// /|}"

step "serve smoke (networked client/server end to end)"
ci/serve_smoke.sh

step "replication smoke (primary + 2 replicas, kill -9, point-in-time restore)"
ci/replication_smoke.sh

step "secbench smoke (every benchmark workload briefly, untraced and traced)"
# secbench drives the server, the wire codec, the snapshot path and Encdb;
# this keeps a refactor of those from silently breaking the benchmark
python3 secbench/smoke_test.py

step "CI gate passed"
