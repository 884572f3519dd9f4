#!/usr/bin/env bash
# Tier-1 verification: the full suite in the normal build, then the
# telemetry + protocol tests again under ASan+UBSan (-DCAM_SANITIZE=ON).
# Run from the repository root:  ./scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: RelWithDebInfo build + full test suite =="
# Warnings are errors here, so a change that adds one fails tier-1.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo
echo "== tier-1: ASan+UBSan build, telemetry + protocol + dataplane + session tests =="
cmake -B build-asan -S . -DCAM_SANITIZE=ON >/dev/null
cmake --build build-asan -j --target cam_tests dataplane_alloc_probe
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
  -R 'Telemetry|Async|HostBus|Proto|Fault|Chaos|EngineGolden|Dataplane|PacketPool|BinQueue|Session|Zipf|FlashWave|WorkloadPlan|GenerateEvents|CapacityLedger|GroupTree|Piggyback|Strategy|Shard'

echo
echo "== tier-1: ASan+UBSan 2-shard serial-equivalence smoke =="
# The sharded engine's determinism contract under ASan: the ShardedAsync
# suite above already replays serial == 1-shard == 2-shard == 4-shard on
# the full async stack; this re-runs the chord equivalence case alone so
# a contract break fails fast with its own banner.
ctest --test-dir build-asan --output-on-failure \
  -R 'ShardedAsync.CamChordSerialEquivalenceAcrossShardCounts'

echo
echo "== tier-1: ASan+UBSan chaos smoke (camsim chaos) =="
cmake --build build-asan -j --target camsim
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

echo
echo "== tier-1: release preset build, warnings are errors =="
# NDEBUG and -O3 bring their own diagnostics (assert-only variables,
# optimizer-only -Wrestrict), so the release tree of the library, tests
# and benches must build warning-free too.
cmake --preset release -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build-release -j

echo
echo "== tier-1: perf smoke (release preset, calibrated ns/event gate) =="
# Best-of-3 engine_sweep at reduced scale against the committed
# BENCH_PR5.json baseline; fails on a >25% load-normalized ns/event
# regression. See scripts/bench.sh for the calibration scheme.
./scripts/bench.sh --smoke

echo
echo "== tier-1: TSan parallel sweep smoke (4-job chaos sweep) =="
# The parallel sweep runtime under ThreadSanitizer: four chaos cells on
# four workers. Any mutable state shared between cells (a leaked static,
# a shared Registry) shows up here as a data race, not a flaky sweep.
cmake -B build-tsan -S . -DCAM_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target camsim
./build-tsan/tools/camsim chaos --strategy=camchord --n=12 --bits=10 \
  --seeds=1..4 --jobs=4 --plan-text="$CRASH_WAVE_PLAN" > /dev/null
# Registry reads from four workers at once: a head-to-head strategy grid
# (6 strategies x 2 seeds) on the sweep pool — any mutable state behind
# strategy::registry() is a TSan race here.
./build-tsan/tools/camsim multicast \
  --strategy=camchord,camkoorde,chord,koorde,geo-coords,bounded-degree \
  --n=150 --bits=12 --seeds=1..2 --jobs=4 > /dev/null

echo
echo "== tier-1: TSan engine goldens + dataplane/session sweeps (byte-identity) =="
cmake --build build-tsan -j --target cam_tests
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
  -R 'EngineGolden|DataplaneSweep|DataplaneGolden|SessionSweep|DetectionModeSweep|StrategyGolden|SessionPlacementGolden'

echo
echo "== tier-1: TSan sharded engine (cross-shard message passing) =="
# Worker lanes + barrier hand-offs under ThreadSanitizer: the ShardGroup
# window loop, the sharded oracle casts, and the sharded async stack all
# push events across shard boundaries here. An outbox touched outside
# the barrier, or any cross-lane state not separated by the generation
# protocol, is a TSan race on this grid.
ctest --test-dir build-tsan --output-on-failure \
  -R 'ShardTeam|ShardGroup|ShardedCast|ShardedAsync'

echo
echo "tier-1 OK"
