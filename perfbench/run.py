#!/usr/bin/env python3
"""Build and run the repository benchmark.

  python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

Run from the repository root. The engine and the benchmark binary are built
from source with CMake into .bench_build/ (perfbench/CMakeLists.txt), and every
file a run writes stays under .bench_build/. The binary's last stdout line is
the result: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (see perfbench/README.md).

--self-test builds and runs the benchmark's unit tests and checks that
BENCHMARK.json names exactly the workloads and metrics the binary reports.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target"] +
                 targets)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build failed: %s (log: %s)" % (e, log_path))
            if r.returncode != 0:
                # A failed configure must not leave a cache that skips it.
                shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def source_rev():
    """git HEAD when run in a git checkout; always a digest of the sources."""
    rev = "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            rev = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "%s src-sha256:%s" % (rev, h.hexdigest()[:12])


def run_benchmark(args):
    data_dir = os.path.join(BUILD, "data",
                            "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(CMAKE_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir,
           "--trace-dir", os.path.join(BUILD, "traces"),
           "--git-rev", source_rev()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail("benchmark exited with %d" % r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")


def self_test():
    build(["perfbench", "perfbench_test"])
    r = subprocess.run([os.path.join(CMAKE_DIR, "perfbench_test")],
                       cwd=CMAKE_DIR, timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        fail("unit tests failed")
    listed = json.loads(subprocess.run(
        [os.path.join(CMAKE_DIR, "perfbench"), "--list-metrics"],
        capture_output=True, text=True, check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": [m["name"] for m in bench["end_to_end"]],
        "per_layer": [m["name"] for m in bench["per_layer"]],
    }
    for key, names in declared.items():
        if names != listed[key]:
            fail("BENCHMARK.json %s differ from the binary's: %s vs %s" %
                 (key, names, listed[key]))
    print("perfbench self-test: OK")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.workload:
        fail("--workload is required")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    build(["perfbench"])
    run_benchmark(args)


if __name__ == "__main__":
    main()
