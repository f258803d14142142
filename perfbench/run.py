#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/CMakeLists.txt (the runtime libraries from src/ plus the benchmark
driver) in the build directory named by $CARGO_TARGET_DIR, or .bench_build;
later calls only run an incremental build.  Build output goes to stderr.

The driver binary prints progress to stderr and, as the last line of stdout,
one JSON object {correct, attempted, failed, metrics}, which this script
passes through.  The exit code is the driver's: non-zero when a run failed
its output check, when the build failed, or on a timeout.  Span files of
--trace 1 runs go to perfbench/out/.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ("sim_stencil_1k", "sim_circuit_replay",
             "threads_stencil_overhead", "threads_stencil_offload")


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure once, then build the driver; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", "dcr_perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("build failed: " + " ".join(cmd))
                return None
    return os.path.join(build_dir, "dcr_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"runtime sources not found under {root}/src")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(root, "perfbench", "out")]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the driver
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"driver printed no result (exit {proc.returncode})")
        return proc.returncode or 4
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
