#!/usr/bin/env bash
# Tier-1 verification: the full suite in the normal build, then the full
# suite again under ASan+UBSan (-DCAM_SANITIZE=ON), the release build's
# stdout goldens, the perf smoke, and the full suite under TSan.
# Run from the repository root:  ./scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: RelWithDebInfo build + full test suite =="
# Warnings are errors here, so a change that adds one fails tier-1.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo
echo "== tier-1: ASan+UBSan build + full test suite =="
cmake -B build-asan -S . -DCAM_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$(nproc)" \
  --target cam_tests engine_alloc_probe dataplane_alloc_probe
ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

echo
echo "== tier-1: ASan+UBSan 2-shard serial-equivalence smoke =="
# The sharded engine's determinism contract under ASan: the full suite
# above already replays serial == 1-shard == 2-shard == 4-shard on the
# async stack; this re-runs the chord equivalence case alone so a
# contract break fails fast with its own banner.
ctest --test-dir build-asan --output-on-failure \
  -R 'ShardedAsync.CamChordSerialEquivalenceAcrossShardCounts'

echo
echo "== tier-1: ASan+UBSan chaos smoke (camsim chaos) =="
cmake --build build-asan -j "$(nproc)" --target camsim
./build-asan/tools/camsim chaos --strategy=camchord --n=12 --bits=10 --seed=7 \
  > /dev/null
./build-asan/tools/camsim chaos --strategy=camkoorde --n=12 --bits=10 --seed=7 \
  > /dev/null

echo
echo "== tier-1: ASan+UBSan strategy seam smoke (head-to-head multicast) =="
# The full registry through the camsim seam: one comma-list grid over
# every registered strategy, plus oracle chaos for the two rivals.
./build-asan/tools/camsim multicast \
  --strategy=camchord,camkoorde,chord,koorde,geo-coords,bounded-degree \
  --n=200 --bits=12 --seeds=1..2 > /dev/null
./build-asan/tools/camsim chaos --strategy=geo-coords,bounded-degree \
  --n=100 --bits=12 --seed=5 > /dev/null

echo
echo "== tier-1: ASan+UBSan repair-enabled crash-wave smoke =="
# Crash a third of the overlay while a multicast is in flight; the
# repair layer (on by default) must bring eventual delivery to 100% of
# survivors or camsim exits nonzero on the mcast.eventual invariant.
CRASH_WAVE_PLAN='at 0 drop p=0.05
at 1000 crash n=4
at 6000 clear'
./build-asan/tools/camsim chaos --strategy=camchord --n=12 --bits=10 --seed=6 \
  --plan-text="$CRASH_WAVE_PLAN" > /dev/null
./build-asan/tools/camsim chaos --strategy=camkoorde --n=12 --bits=10 --seed=6 \
  --plan-text="$CRASH_WAVE_PLAN" > /dev/null

echo
echo "== tier-1: ASan+UBSan detection-driven failover smoke =="
# Detection-mode session chaos: crashes discovered by the heartbeat
# failure detector, standby re-hangs, parked subtrees, and a detected
# mid-stream crash with pull gap-repair — the whole failover pipeline
# under ASan. camsim exits nonzero on any session invariant violation.
./build-asan/tools/camsim groups --chaos --detect --stream-crash \
  --strategy=camchord --n=48 --bits=12 --seed=4 --packets=16 > /dev/null
./build-asan/tools/camsim groups --chaos --detect --stream-crash \
  --strategy=camkoorde --n=48 --bits=12 --seed=8 --mode=ledger \
  --packets=16 > /dev/null
# An empty population: the workload generator has no live node to draw
# from, so every plan step emits nothing and the run still ends ok.
./build-asan/tools/camsim groups --chaos --strategy=camchord --n=0 --bits=12 \
  --seed=1 > /dev/null
# Input errors exit 2 with usage: the subcommands that start from a
# member reject an empty population, and every subcommand rejects ring
# bits outside RingSpace's range.
for args in "lookup --n=0" "stream --n=0" "churn --n=0" "multicast --bits=64"; do
  status=0
  # shellcheck disable=SC2086  # args is a flag list without spaces
  ./build-asan/tools/camsim $args > /dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] ||
    { echo "tier-1: camsim $args exited $status, not 2" >&2; exit 1; }
done

echo
echo "== tier-1: release preset build, warnings are errors =="
# NDEBUG and -O3 bring their own diagnostics (assert-only variables,
# optimizer-only -Wrestrict), so the release tree of the library, tests
# and benches must build warning-free too.
cmake --preset release -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build-release -j "$(nproc)"

echo
echo "== tier-1: engine_scale list flags (release preset) =="
# A bad --n-list or --shard-list entry, or --sources=0, exits 2 with
# usage before any population is built or thread started. Each value
# stays cheap even without its check: a 200-node population, at most 64
# worker threads.
for args in "--n-list=0" "--n-list=abc" "--n-list=200," \
            "--n-list=200 --shard-list=65" "--n-list=200 --sources=0"; do
  status=0
  # shellcheck disable=SC2086  # args is a flag list without spaces
  ./build-release/bench/engine_scale $args > /dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] ||
    { echo "tier-1: engine_scale $args exited $status, not 2" >&2; exit 1; }
done

echo
echo "== tier-1: engine_scale cross-shard signatures (release preset) =="
# The delivered tree of each cell against a pinned signature, at every
# shard count. A serial == sharded test alone would pass a change in how
# a hop picks its children that moved both sides alike.
ES_JSON=$(./build-release/bench/engine_scale --n-list=20000,200000 \
  --shard-list=1,2,4 --sources=2 --seed=1)
python3 - "$ES_JSON" <<'EOF'
import json, sys
doc = json.loads(sys.argv[1])
want = {20000: "d6e651c2ee774373", 200000: "27125e69f9466fba"}
bad = [c for c in doc["cells"] if want.get(c["n"]) != c["signature"]]
seen = sorted({(c["n"], c["shards"]) for c in doc["cells"]})
if (not doc["equivalence_ok"] or bad or
        seen != sorted((n, s) for n in want for s in (1, 2, 4))):
    sys.exit("tier-1: engine_scale signatures moved: %s" % doc["cells"])
EOF

echo
echo "== tier-1: goldens (release preset, byte-identical stdout) =="
# The paper's figures, every ablation, two camsim runs and the examples,
# each against its file under tests/golden/cli/ (about 80 s on 4 cores).
./scripts/check_goldens.sh build-release

echo
echo "== tier-1: perf smoke (release preset, calibrated ns/event gate) =="
# Best-of-3 engine_sweep at reduced scale against the committed
# BENCH_PR5.json baseline; fails on a >25% load-normalized ns/event
# regression. See scripts/bench.sh for the calibration scheme.
./scripts/bench.sh --smoke

echo
echo "== tier-1: TSan parallel sweep smoke (4-job chaos sweep) =="
# The parallel sweep runtime under ThreadSanitizer: four chaos cells on
# four lanes. Any mutable state shared between cells (a leaked static,
# a shared Registry) shows up here as a data race, not a flaky sweep.
cmake -B build-tsan -S . -DCAM_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$(nproc)" --target camsim
./build-tsan/tools/camsim chaos --strategy=camchord --n=12 --bits=10 \
  --seeds=1..4 --jobs=4 --plan-text="$CRASH_WAVE_PLAN" > /dev/null
# Registry reads from four workers at once: a head-to-head strategy grid
# (6 strategies x 2 seeds) on the sweep lanes — any mutable state behind
# strategy::registry() is a TSan race here.
./build-tsan/tools/camsim multicast \
  --strategy=camchord,camkoorde,chord,koorde,geo-coords,bounded-degree \
  --n=150 --bits=12 --seeds=1..2 --jobs=4 > /dev/null

echo
echo "== tier-1: TSan build + full test suite =="
# Every test again under ThreadSanitizer: the sweep lanes, the ShardGroup
# window loop and the sharded casts and async stack hand state between
# threads, and any touch outside those hand-offs is a TSan race here.
cmake --build build-tsan -j "$(nproc)" \
  --target cam_tests engine_alloc_probe dataplane_alloc_probe
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)"

echo
echo "tier-1 OK"
