#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

Builds perfbench/ (the hotspots libraries from src/ plus the measuring
program) into the build directory -- $CARGO_TARGET_DIR when set, else
.bench_build -- then runs one workload and relays its report.  The last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  --test builds
and runs the benchmark's own tests instead.

Run it from the repository root.  Everything it writes stays under the
build directory.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("outbreak-hitlist", "study-nat-faults", "ingest-fleet")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir(root):
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(root, path)


def build(root, out, target):
    """Configures on first use and builds `target`; build output goes to
    stderr so the report on stdout stays parseable."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, target)


def git_commit(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    metrics = result["metrics"]
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    try:
        with open(spec_path) as spec_file:
            spec = json.load(spec_file)
        wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError):
        wanted = set(metrics)
    return set(metrics) == wanted and all(
        isinstance(m.get("value"), (int, float)) for m in metrics.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and None in (args.workload, args.seed, args.seconds,
                                  args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.test and (args.seed < 0 or args.seconds <= 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no hotspots sources under {root}/src; run from a full checkout")
        return 2
    out = build_dir(root)
    try:
        if args.test:
            binary = build(root, out, "perfbench_test")
            return subprocess.run([binary], cwd=out,
                                  timeout=RUN_TIMEOUT_S).returncode
        binary = build(root, out, "perfbench")
    except (OSError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--threads", str(os.cpu_count() or 1),
               "--work-dir", os.path.join(out, "work"),
               "--commit", git_commit(root)]
    try:
        done = subprocess.run(command, cwd=root, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not valid_result(lines[-1], args.trace):
        log(f"{args.workload} failed (exit {done.returncode})")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
