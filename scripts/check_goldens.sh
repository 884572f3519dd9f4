#!/usr/bin/env bash
# Runs each command below from BUILD_DIR, requires exit 0, and
# byte-compares its stdout with tests/golden/cli/<name>.txt: F6-F11 at
# n = 100,000, A1-A15, two camsim runs and the five examples. A mismatch
# prints the diff and the command line; the script exits 1 after running
# the rest. The goldens come from the release preset. A golden changes
# only in a commit of its own that says which number moved and why.
#
#   scripts/check_goldens.sh build-release
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: scripts/check_goldens.sh BUILD_DIR" >&2
  exit 2
fi
BUILD=$1

# name  command line, relative to BUILD_DIR
COMMANDS='
fig06_throughput           bench/fig06_throughput --jobs=4
fig07_heterogeneity        bench/fig07_heterogeneity --jobs=4
fig08_tradeoff             bench/fig08_tradeoff --jobs=4
fig09_pathdist_camchord    bench/fig09_pathdist_camchord --jobs=4
fig10_pathdist_camkoorde   bench/fig10_pathdist_camkoorde --jobs=4
fig11_avgpath              bench/fig11_avgpath --jobs=4
abl_lookup_hops            bench/abl_lookup_hops --jobs=4
abl_neighbor_spread        bench/abl_neighbor_spread --jobs=4
abl_churn_resilience       bench/abl_churn_resilience --jobs=4
abl_tree_balance           bench/abl_tree_balance --jobs=4
abl_load_balance           bench/abl_load_balance --jobs=4
abl_pns                    bench/abl_pns --jobs=4
abl_streaming              bench/abl_streaming --jobs=4
abl_maintenance            bench/abl_maintenance --jobs=4
abl_capacity_dist          bench/abl_capacity_dist --jobs=4
abl_async_overhead         bench/abl_async_overhead --jobs=4
abl_geography              bench/abl_geography --jobs=4
abl_backpressure           bench/abl_backpressure --json --jobs=4
abl_manygroup              bench/abl_manygroup --json --jobs=4
abl_failover               bench/abl_failover --json --jobs=4
abl_strategy_rivals        bench/abl_strategy_rivals --json --jobs=4
camsim_stream              tools/camsim stream --n=2000 --p=64 --packets=32
camsim_groups              tools/camsim groups --strategy=camchord --n=2000 --seed=1
example_async_deployment   examples/example_async_deployment
example_game_lobby         examples/example_game_lobby
example_membership_churn   examples/example_membership_churn
example_quickstart         examples/example_quickstart
example_video_stream       examples/example_video_stream
'

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

failed=0
while read -r name cmd; do
  [ -n "$name" ] || continue
  golden=tests/golden/cli/$name.txt
  status=0
  # shellcheck disable=SC2086  # cmd is a flag list without spaces
  "$BUILD"/$cmd > "$OUT/$name.txt" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "golden FAIL $name: exit status $status from: $BUILD/$cmd" >&2
  elif ! diff -u "$golden" "$OUT/$name.txt" >&2; then
    echo "golden FAIL $golden differs from the stdout of: $BUILD/$cmd" >&2
  else
    echo "golden ok   $name"
    continue
  fi
  failed=$((failed + 1))
done <<< "$COMMANDS"

if [ "$failed" -ne 0 ]; then
  echo "golden check: $failed command(s) failed" >&2
  exit 1
fi
echo "golden check: every output matches its golden"
