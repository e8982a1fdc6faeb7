#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench (and the simulator
libraries it links, from ../src) as a Release build in
<base>/perfbench-<hash of this checkout's path>, where <base> is
$CARGO_TARGET_DIR, else .bench_build. Later calls rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Spans are written under
<build dir>/spans. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175  # a run must end within 180 s


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    # One build tree per checkout, so checkouts sharing $CARGO_TARGET_DIR
    # never reuse a cache configured for another checkout's sources.
    base = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tag = hashlib.sha256(str(HERE).encode()).hexdigest()[:16]
    build_dir = base / f"perfbench-{tag}"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return build_dir, binary


def run(cmd):
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s", code=3)


def check_benchmark_json(binary):
    """BENCHMARK.json must list exactly what the binary emits."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = json.loads(subprocess.run(
        [str(binary), "--list-metrics"], capture_output=True, text=True,
        check=True).stdout)
    problems = []
    if [w["name"] for w in declared["workloads"]] != listed["workloads"]:
        problems.append("workload names differ")
    for key in ("end_to_end", "per_layer"):
        want = {(m["name"], m["unit"], m["better"]) for m in declared[key]}
        have = {(m["name"], m["unit"], m["better"]) for m in listed[key]}
        for m in sorted(want ^ have):
            side = "BENCHMARK.json" if m in want else "perfbench"
            problems.append(f"{key}: {m} only in {side}")
    for p in problems:
        print(f"FAIL {p}")
    print("BENCHMARK.json " + ("matches" if not problems else "MISMATCH"))
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own checks")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    build_dir, binary = build()
    if args.selftest:
        ok = check_benchmark_json(binary)
        code = run([str(binary), "--selftest"])
        sys.exit(code if code else (0 if ok else 1))

    spans = build_dir / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--span-dir", str(spans)]
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
