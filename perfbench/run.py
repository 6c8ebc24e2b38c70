#!/usr/bin/env python3
"""Repository benchmark: builds the MARIOH library, the marioh_served
daemon and the benchmark driver from source, then runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload reconstruct_eu|serve_light \
        --seed N --seconds S --trace 0|1 [--max-jobs N]

The build lands in $CARGO_TARGET_DIR (default .bench_build) under the
checkout. Build output goes to stderr; stdout ends with the driver's
`perfbench-meta {...}` line and its result object, which is the last
line. Exits non-zero without a result when the build fails, and
non-zero after the result when a correctness gate fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("reconstruct_eu", "serve_light")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--max-jobs", type=int, default=0,
                        help="stop each timed phase after N jobs "
                             "(the self-check's short mode)")
    return parser.parse_args()


def build(root, build_dir):
    """Configures once, then (re)builds the two targets; returns the
    driver and daemon paths, or exits 1 on failure."""
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    log = sys.stderr
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = [cmake, "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=log, stderr=log, env=env) != 0:
            sys.exit("perfbench: configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = [cmake, "--build", str(build_dir), "-j", jobs, "--target",
               "perfbench_driver", "marioh_served"]
    if subprocess.call(command, stdout=log, stderr=log, env=env) != 0:
        sys.exit("perfbench: build failed")
    driver = build_dir / "perfbench_driver"
    served = build_dir / "marioh" / "examples" / "marioh_served"
    for binary in (driver, served):
        if not binary.exists():
            sys.exit("perfbench: missing build output %s" % binary)
    return driver, served


def commit_of(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"
    driver, served = build(root, build_dir)
    work_dir = build_dir / "runs"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--max-jobs", str(args.max_jobs),
               "--served", str(served), "--work-dir", str(work_dir),
               "--commit", commit_of(root)]
    sys.stdout.flush()
    # The driver replaces this process, so it owns stdout and the exit
    # code, and no child outlives the run.
    os.execv(command[0], command)


if __name__ == "__main__":
    main()
