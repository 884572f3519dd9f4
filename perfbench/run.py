#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The driver is compiled (release build,
NDEBUG) from ../src into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only re-check the build. The build log
goes to stderr. Standard output carries the driver's metric lines and
ends with one JSON object: correct, attempted, failed, metrics. The exit
status is 0 only when the build succeeded and every output check passed.
With --trace 1 the recorded spans are written to
<build dir>/spans/<workload>-seed<n>.jsonl.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("session_stream", "hotspot_stream", "sharded_cast")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             env=env, check=False)
        if res.returncode != 0:
            fail("build step failed: " + " ".join(cmd), 2)
    return os.path.join(bdir, "perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s; run from a full checkout"
             % os.path.join(ROOT, "src"), 2)

    bdir = build_dir()
    os.makedirs(os.path.join(bdir, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    binary = build(bdir, env)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(bdir, "spans"), exist_ok=True)
        cmd += ["--spans", os.path.join(
            bdir, "spans", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             text=True, check=False)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))

    lines = res.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("driver printed nothing (exit %d)" % res.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON (exit %d)" % res.returncode)
    want = declared_metrics(bool(args.trace))
    if want is not None and set(result["metrics"]) != want:
        fail("driver metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(want)))
    print("\n".join(lines), flush=True)
    if res.returncode != 0 or not result["correct"]:
        sys.exit(res.returncode or 1)


if __name__ == "__main__":
    main()
