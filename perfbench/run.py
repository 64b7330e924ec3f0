#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload hot-sharded --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds a Release
tree under .bench_build/ (later runs rebuild incrementally), then runs the
decorator and reporting self-tests, then the workload. The workload's last
output line is its JSON result; the exit code is non-zero when the build,
a self-test, or an answer check fails.
"""
import argparse
import hashlib
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hot-sharded", "cold-paged", "live-rw")
# Leaves the 180 s a run may take some room for process start and teardown.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def code_version():
    """The git commit when there is one, else a digest of the sources."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if (git.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def no_aslr_prefix():
    """setarch -R runs the workload with address-space randomization off,
    which removes one source of run-to-run level shifts (cache aliasing of
    differently placed heaps). Skipped where setarch is missing or refused."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    try:
        ok = subprocess.run(prefix + ["true"], capture_output=True,
                            timeout=10).returncode == 0
    except (OSError, subprocess.SubprocessError):
        ok = False
    return prefix if ok else []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        log("perfbench: self-tests failed")
        return 3
    out_dir = os.path.join(ROOT, ".bench_build", "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = no_aslr_prefix() + [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir,
           "--code-version", code_version()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: workload run timed out")
        return 4


if __name__ == "__main__":
    sys.exit(main())
