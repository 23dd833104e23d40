#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs it.

    python3 e2ebench/run.py --workload snippet_hot --seed 1 --seconds 15 \
        --trace 0
    python3 e2ebench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark (Release, with the rlz library compiled from this checkout's
src/) under .bench_build/ (or $CARGO_TARGET_DIR when set); later runs
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Every argument is passed on to
the benchmark binary; see README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run must end within 180 s; the build is not counted against this.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def build(out_dir):
    cmake_dir = os.path.join(out_dir, "e2ebench")
    configure = subprocess.run(
        ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr)
    if configure.returncode != 0:
        return None
    jobs = str(os.cpu_count() or 1)
    made = subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "e2e_bench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        return None
    return os.path.join(cmake_dir, "e2e_bench")


def main():
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    cmd = [binary] + sys.argv[1:] + [
        "--workdir", os.path.join(out_dir, "run"), "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("e2ebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
