#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage (from the repository root):

    python3 benchmark/run.py --workload ycsb_paper --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --selftest

The driver (benchmark/src, linked against the library in src/) is built
in Release under $CARGO_TARGET_DIR, or .bench_build when that is unset.
The last line on stdout is the run's JSON result; build output goes to
stderr. Traced runs write their span file under .bench_out/.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    if not path.is_absolute():
        path = Path.cwd() / path
    return path / "sbft_bench"


def build() -> Path:
    """Configures and builds the driver; returns the binary's path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    # One build at a time per build tree.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run([cmake, "-S", str(BENCH_DIR), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release", *gen],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run([cmake, "--build", str(out), "-j", jobs],
                       stdout=sys.stderr, check=True)
    binary = out / "sbft_bench"
    if not binary.exists():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [str(binary), "--selftest"]
    else:
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
