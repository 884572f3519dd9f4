#!/usr/bin/env bash
# Long chaos sweep: 100+ seeds through the crash-wave scenario for both
# CAM systems, repair on (every run must be invariant-clean) and repair
# off (eventual-delivery violations are EXPECTED — they are counted,
# not failed). Not part of tier-1; run before cutting a release or
# after touching the repair layer:
#
#   ./scripts/chaos_long.sh              # seeds 1..100
#   SEEDS=250 ./scripts/chaos_long.sh    # seeds 1..250
#   JOBS=8 ./scripts/chaos_long.sh       # sweep-pool workers (default
#                                        # nproc; results identical)
#   ./scripts/chaos_long.sh --sessions   # session-layer leg instead:
#                                        # detection-driven failover
#                                        # sweep (see below)
#
# Exits nonzero if any repair-on run reports a violation.
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${SEEDS:-100}"
JOBS="${JOBS:-$(nproc)}"
MODE=packet
[ "${1:-}" = "--sessions" ] && MODE=sessions

cmake -B build -S . >/dev/null
cmake --build build -j --target camsim >/dev/null
CAMSIM=./build/tools/camsim

# --sessions: long many-group session-chaos sweep with detection-driven
# failover (ISSUE 8). Every seed replays a zipf fleet with flash crowds,
# diurnal churn, and regional failure bursts; crashes are discovered by
# the heartbeat failure detector, orphans re-hang through standby
# parents (full placement fallback), zero-slack subtrees park, and one
# interior member of the largest streamed group dies mid-stream to
# exercise pull gap-repair. camsim exits nonzero if ANY seed violates a
# session invariant (tree/ledger consistency, exactly-once delivery,
# completeness), so both legs must be clean.
if [ "$MODE" = sessions ]; then
  fail=0
  for system in camchord camkoorde; do
    extra=""
    [ "$system" = camkoorde ] && extra="--mode=ledger"
    if "$CAMSIM" groups --chaos --detect --stream-crash \
        --strategy="$system" --n=64 --bits=12 --packets=16 \
        --seeds=1.."$SEEDS" --jobs="$JOBS" $extra > /dev/null; then
      echo "$system: $SEEDS seeds, detection-driven failover clean"
    else
      echo "FAIL $system: session invariant violation in sweep"
      echo "  repro: camsim groups --chaos --detect --stream-crash" \
           "--strategy=$system --n=64 --bits=12 --packets=16 $extra" \
           "--seeds=1..$SEEDS"
      fail=1
    fi
  done
  exit "$fail"
fi

chord_plan='at 0 drop p=0.05
at 1000 crash n=4
at 6000 clear'
# CAM-Koorde's flooding has redundant in-edges; a heavier wave is
# needed to orphan regions on most seeds (mirrors tests/chaos_repair).
koorde_plan='at 0 drop p=0.15
at 1000 crash n=6
at 6000 clear'

# One camsim invocation per (system, repair) leg: the chaos sweep mode
# runs a cell per seed on the parallel sweep lanes and prints one line
# per seed; the per-seed lines and summary are byte-identical for any
# JOBS value, so raising parallelism never changes what this script sees.
fail=0
for system in camchord camkoorde; do
  plan="$chord_plan"
  [ "$system" = camkoorde ] && plan="$koorde_plan"

  # Repair on: every seed must be invariant-clean (camsim exits nonzero
  # if any is not). Capture the output so failing seeds get a repro line.
  on_report=$("$CAMSIM" chaos --strategy="$system" --n=12 --bits=10 \
      --seeds=1.."$SEEDS" --jobs="$JOBS" --plan-text="$plan" 2>/dev/null) \
    || true
  bad=$(grep -c 'VIOLATIONS' <<< "$on_report" || true)
  if [ "$bad" -gt 0 ]; then
    grep 'VIOLATIONS' <<< "$on_report" | while read -r line; do
      seed="${line#seed=}"
      seed="${seed%% *}"
      echo "FAIL $system seed=$seed (repair on): invariant violation"
      echo "  repro: camsim chaos --strategy=$system --n=12 --bits=10" \
           "--seed=$seed --plan-text='$plan'"
    done
  fi

  # Repair off: eventual-delivery violations are EXPECTED; count the
  # seeds that lost a region (their line carries the mcast.eventual
  # kind). camsim exits nonzero here by design.
  off_report=$("$CAMSIM" chaos --strategy="$system" --n=12 --bits=10 \
      --seeds=1.."$SEEDS" --jobs="$JOBS" --plan-text="$plan" --no-repair \
      2>/dev/null) || true
  flagged=$(grep -c 'mcast.eventual' <<< "$off_report" || true)

  echo "$system: $SEEDS seeds, repair-on violations=$bad," \
       "repair-off seeds with lost regions=$flagged"
  [ "$bad" -gt 0 ] && fail=1
done

exit "$fail"
