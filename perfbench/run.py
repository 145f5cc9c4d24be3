#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload bank_credit --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload in turn and exits nonzero if any of
them failed a correctness check. The first run configures and builds into
.bench_build/perfbench (Release); later runs only rebuild what changed.
Build output goes to standard error, so standard output ends with the
driver's JSON result line. A stamped copy of the result, with host and build
metadata, is written to .bench_out/.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("bank_credit", "drive_news")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(command):
    """Runs a build step with its output on stderr; exits on failure."""
    status = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if status.returncode != 0:
        fail(f"build step failed: {' '.join(map(str, command))}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {HERE.name}/ (need CMakeLists.txt and src/)")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD), "--target", "perfbench",
                "-j", jobs])
    return BUILD / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return sha.stdout.strip() if sha.returncode == 0 else "none"


def src_digest():
    """Content hash of the library sources: identifies the code under test
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    OUT.mkdir(exist_ok=True)
    stamp = ["--git-sha", git_sha(), "--src-digest", src_digest()]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    worst = 0
    for workload in workloads:
        out_file = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        command = [str(binary), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), *stamp, "--out", str(out_file)]
        sys.stdout.flush()
        try:
            status = subprocess.run(command, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        worst = max(worst, status.returncode)
    sys.exit(worst)


if __name__ == "__main__":
    main()
