#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the benchmark in Release mode under $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. Each workload's parameters
come from perfbench/workloads.json. The benchmark prints its report and, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. The exit code is the benchmark's: 0 when every output
check passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, targets):
    """Configures once, then builds `targets`; output goes to stderr."""
    cmake_dir = build_dir / "cmake"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (cmake_dir / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(cmake_dir), "-j4", "--target", *targets],
            check=True, stdout=sys.stderr)
    return cmake_dir


def workload_flags(config, name):
    workloads = config["workloads"]
    if name not in workloads:
        fail(f"unknown workload {name!r}; choose from {sorted(workloads)}")
    params = workloads[name]["params"]
    return [f"--{key}={value}" for key, value in sorted(params.items())]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT} holds no library sources to build")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")

    if args.selftest:
        cmake_dir = build(build_dir, ["perfbench_test"])
        sys.exit(subprocess.run([str(cmake_dir / "perfbench_test")]).returncode)

    if not args.workload:
        fail("--workload is required")
    with open(HERE / "workloads.json") as f:
        config = json.load(f)
    flags = workload_flags(config, args.workload)
    try:
        cmake_dir = build(build_dir, ["perfbench"])
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}")

    work_dir = build_dir / "work" / str(os.getpid())
    command = [str(cmake_dir / "perfbench"), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}",
               f"--trace={args.trace}", f"--work_dir={work_dir}",
               f"--trace_dir={build_dir / 'traces'}", *flags]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
