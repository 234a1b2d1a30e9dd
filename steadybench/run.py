#!/usr/bin/env python3
"""Builds the steady-state benchmark harness and runs one workload.

Usage (from the repository root):

    python3 steadybench/run.py --workload resnet-c8-sync --seed 1 \
        --seconds 10 --trace 0

Every argument is forwarded to the harness binary (see README.md). The
harness and the fedsu library are built from source into .bench_build at the
repository root; an up-to-date build costs a second. Build output goes to
.bench_build/build.log so that the harness's JSON result stays the last line
of standard output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "steadybench")


def fail(message):
    print("steadybench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("fedsu sources not found under src/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    with open(log_path, "w") as log:
        for step in steps:
            code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode
            if code != 0:
                fail("build failed (exit %d); see %s" % (code, log_path))


def main():
    build()
    # The harness writes its checkpoints under .bench_build, inside the
    # checkout, and removes them before it exits.
    result = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
