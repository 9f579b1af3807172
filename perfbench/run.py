#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources, then runs it.

    python3 perfbench/run.py --workload blocking|spin|serve --seed N \
        --seconds S --trace 0|1 [--jobs N] [--scale X] [--deadline-ms MS]

Run from the root of the checkout. The build lives in .bench_build/perfbench
(configured on first use, incremental afterwards); its output goes to stderr
so the last line on stdout stays the benchmark's JSON result. Traced runs
also write their spans there. Nothing else is written.

Exit status: the benchmark's own (0 when every operation passed, 1 when one
failed, 2 on bad arguments), or 1 without a result when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = []  # the cache remembers it
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, *generator],
        ["cmake", "--build", BUILD, "--target", "perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    os.execv(BINARY, [BINARY, *sys.argv[1:], "--spans-dir", BUILD])


if __name__ == "__main__":
    sys.exit(main())
