#!/usr/bin/env bash
# Perf harness: builds the "release" preset (optimized, NDEBUG on — the
# one build flavor where asserts are compiled out) and runs the tracked
# suite pinned to one core:
#
#   engine_sweep — the A3-churn-shaped macro probe (events/sec,
#                  ns/event, allocs/event, peak RSS)
#   micro_ops    — event-engine + flat-table microbenchmarks
#   engine_scale — the sharded engine grid, n up to 1M
#                  (BENCH_PR10.json)
#
# What the figure and ablation benches print is pinned separately, by
# scripts/check_goldens.sh against tests/golden/cli/.
#
# Modes:
#   scripts/bench.sh                full run; rewrites BENCH_PR5.json
#                                   (preserving its "history" section)
#                                   and BENCH_PR10.json
#   scripts/bench.sh --smoke        reduced engine_sweep run; compares
#                                   total ns/event against the committed
#                                   BENCH_PR5.json smoke baseline and
#                                   exits 1 on a >25% regression
#   scripts/bench.sh --update-smoke rerun the smoke config and refresh
#                                   only the smoke baseline in place
#
# The workloads are deterministic in --seed; wall-clock numbers move
# with the machine, which is why the smoke gate is a wide ratio (1.25x)
# against a baseline measured on the same box, not an absolute number —
# and why every engine_sweep measurement here is best-of-3 (min
# ns/event): on a shared core the fastest run is the least-perturbed
# one, and comparing best against best cancels load spikes.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_PR5.json
BUILD=build-release
SMOKE_FLAGS="--n=4000 --bits=19 --async-n=120 --sources=4 --async-ms=20000 --seed=1"
SMOKE_MAX_RATIO=1.25

MODE=full
case "${1-}" in
  "") ;;
  --smoke) MODE=smoke ;;
  --update-smoke) MODE=update-smoke ;;
  *) echo "usage: scripts/bench.sh [--smoke|--update-smoke]" >&2; exit 2 ;;
esac

PIN=""
if command -v taskset >/dev/null 2>&1; then PIN="taskset -c 0"; fi

echo "== bench: configuring + building release preset =="
cmake --preset release >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target engine_sweep micro_ops >/dev/null

# Run engine_sweep $1 times with the remaining args; print the run with
# the lowest total ns/event (least scheduler interference).
best_of() {
  local reps=$1; shift
  local runs=()
  for _ in $(seq "$reps"); do
    # shellcheck disable=SC2086
    runs+=("$($PIN "./$BUILD/bench/engine_sweep" "$@")")
  done
  python3 -c '
import json, sys
docs = [json.loads(a) for a in sys.argv[1:]]
print(json.dumps(min(docs, key=lambda d: d["total"]["ns_per_event"])))
' "${runs[@]}"
}

run_smoke() {
  # shellcheck disable=SC2086
  best_of 3 $SMOKE_FLAGS
}

if [ "$MODE" = smoke ]; then
  if [ ! -f "$OUT" ]; then
    echo "bench: no committed $OUT baseline; run scripts/bench.sh first" >&2
    exit 1
  fi
  echo "== bench: smoke run ($SMOKE_FLAGS) =="
  CUR_JSON=$(run_smoke)
  python3 - "$OUT" <<'EOF' "$CUR_JSON" "$SMOKE_MAX_RATIO"
import json, sys
baseline_path, cur_json, max_ratio = sys.argv[1], sys.argv[2], float(sys.argv[3])
base = json.load(open(baseline_path))["smoke"]
cur = json.loads(cur_json)
# Normalize ns/event by each run's own CPU calibration: on a shared
# core, absolute wall time tracks machine load; the calibrated ratio
# tracks only the code.
b = base["total"]["ns_per_event"] / base["calib_ns_per_iter"]
c = cur["total"]["ns_per_event"] / cur["calib_ns_per_iter"]
ratio = c / b
print(f"smoke calibrated ns/event: baseline {b:.1f}, current {c:.1f}, "
      f"ratio {ratio:.3f} (limit {max_ratio})")
if ratio > max_ratio:
    print(f"bench: PERF REGRESSION — calibrated ns/event grew {ratio:.2f}x "
          f"vs committed baseline (>{max_ratio}x)", file=sys.stderr)
    sys.exit(1)
print("bench: smoke OK")
EOF
  exit 0
fi

echo "== bench: smoke-config run (baseline refresh) =="
SMOKE_JSON=$(run_smoke)

if [ "$MODE" = update-smoke ]; then
  python3 - "$OUT" <<'EOF' "$SMOKE_JSON"
import json, sys
path, smoke = sys.argv[1], json.loads(sys.argv[2])
doc = json.load(open(path))
doc["smoke"] = smoke
json.dump(doc, open(path, "w"), indent=2)
open(path, "a").write("\n")
print(f"bench: refreshed smoke baseline in {path}")
EOF
  exit 0
fi

echo "== bench: engine_sweep (full A3-churn shape, n=20000, best of 3) =="
SWEEP_JSON=$(best_of 3 --seed=1)

echo "== bench: micro_ops (event engine + flat tables) =="
MICRO_JSON=$($PIN "./$BUILD/bench/micro_ops" \
  --benchmark_filter='BM_Sim|BM_FlatMap|BM_UnorderedMap' \
  --benchmark_format=json 2>/dev/null)

python3 - "$OUT" <<'EOF' "$SWEEP_JSON" "$MICRO_JSON" "$SMOKE_JSON"
import json, sys
path = sys.argv[1]
sweep, micro, smoke = (json.loads(a) for a in sys.argv[2:5])
history = {}
try:
    history = json.load(open(path)).get("history", {})
except (FileNotFoundError, json.JSONDecodeError):
    pass
doc = {
    "schema": "cam-bench-v1",
    "generated_by": "scripts/bench.sh (release preset, NDEBUG, pinned core)",
    "engine_sweep": sweep,
    "micro_ops": {
        b["name"]: {
            "real_time_ns": round(b["real_time"], 2),
            "items_per_second": round(b.get("items_per_second", 0.0), 1),
        }
        for b in micro["benchmarks"]
    },
    "smoke": smoke,
    "history": history,
}
json.dump(doc, open(path, "w"), indent=2)
open(path, "a").write("\n")
print(f"bench: wrote {path}")
EOF

python3 - "$OUT" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1] if len(sys.argv) > 1 else "BENCH_PR5.json"))
t = doc["engine_sweep"]["total"]
print(f"total: {t['events']} events, {t['ns_per_event']:.1f} ns/event, "
      f"{t['events_per_sec']:.0f} events/sec, "
      f"{t['allocs_per_event']:.3f} allocs/event, "
      f"peak RSS {doc['engine_sweep']['peak_rss_bytes']/1e6:.1f} MB")
EOF

# ---------------------------------------------------------------------
# Engine-scale phase (BENCH_PR10.json): the sharded event engine over
# n in {20k, 200k, 1M} x shards in {1, 4, hw}. Three gates, asserted
# here:
#   * equivalence_ok — delivered-tree signatures identical across every
#     shard count at every n (the determinism contract);
#   * allocs/event < 0.1 in every cell (the arena/pool discipline);
#   * events/sec: with >1 hardware core the best sharded cell must beat
#     the one-shard cell at the largest n; on a single core (where
#     shards can only time-slice) the sharded cells must instead stay
#     within 1.5x of the serial wall time — the honest gate for this
#     box, recorded as such in the JSON.
# The 1M row completing at all, with peak RSS captured, is the
# million-node-in-RAM acceptance probe.
ES_OUT=BENCH_PR10.json
echo "== bench: engine_scale (sharded engine, n up to 1M) =="
cmake --build "$BUILD" -j "$(nproc)" --target engine_scale >/dev/null
ES_JSON=$($PIN "./$BUILD/bench/engine_scale" --sources=2 --seed=1)

python3 - "$ES_OUT" <<'EOF' "$ES_JSON"
import json, sys
path, doc_in = sys.argv[1], json.loads(sys.argv[2])
cells, hw = doc_in["cells"], doc_in["config"]["hw_cores"]
history = {}
try:
    history = json.load(open(path)).get("history", {})
except (FileNotFoundError, json.JSONDecodeError):
    pass
ok = True
if not doc_in["equivalence_ok"]:
    print("bench: ENGINE GATE FAILED — delivered trees diverged across "
          "shard counts", file=sys.stderr)
    ok = False
for c in cells:
    if c["allocs_per_event"] >= 0.1:
        print(f"bench: ENGINE GATE FAILED — {c['allocs_per_event']:.3f} "
              f"allocs/event at n={c['n']} shards={c['shards']} (limit 0.1)",
              file=sys.stderr)
        ok = False
summary = {}
for n in sorted({c["n"] for c in cells}):
    row = {c["shards"]: c for c in cells if c["n"] == n}
    serial = row[1]
    sharded = [c for s, c in row.items() if s > 1]
    best = max(sharded, key=lambda c: c["events_per_sec"]) if sharded else serial
    speedup = best["events_per_sec"] / serial["events_per_sec"]
    summary[str(n)] = {
        "serial_events_per_sec": serial["events_per_sec"],
        "best_sharded_events_per_sec": best["events_per_sec"],
        "best_sharded_shards": best["shards"],
        "speedup": round(speedup, 3),
        "peak_rss_bytes": max(c["peak_rss_bytes"] for c in row.values()),
    }
    if hw > 1 and n == max(c["n"] for c in cells) and speedup < 1.0:
        print(f"bench: ENGINE GATE FAILED — sharded slower than serial at "
              f"n={n} on a {hw}-core box", file=sys.stderr)
        ok = False
    if hw == 1 and speedup < 1.0 / 1.5:
        print(f"bench: ENGINE GATE FAILED — sharded overhead over 1.5x at "
              f"n={n} on a single core", file=sys.stderr)
        ok = False
doc = {
    "schema": "cam-bench-v1",
    "generated_by": "scripts/bench.sh (release preset, engine_scale "
                    "--sources=2 --seed=1, pinned core)",
    "engine_scale": doc_in,
    "summary": summary,
    "gates": {"equivalence_ok": doc_in["equivalence_ok"],
              "allocs_under_0.1": all(c["allocs_per_event"] < 0.1
                                      for c in cells),
              "perf_mode": "speedup" if hw > 1 else "bounded-overhead-1core",
              "perf_ok": ok},
    "history": history,
}
json.dump(doc, open(path, "w"), indent=2)
open(path, "a").write("\n")
for n, s in summary.items():
    print(f"n={n}: serial {s['serial_events_per_sec']:.0f} ev/s, best "
          f"sharded {s['best_sharded_events_per_sec']:.0f} ev/s "
          f"(shards={s['best_sharded_shards']}, {s['speedup']}x), "
          f"peak RSS {s['peak_rss_bytes']/1e6:.1f} MB")
if not ok:
    sys.exit(1)
print(f"bench: wrote {path}")
EOF
