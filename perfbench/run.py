#!/usr/bin/env python3
"""Build and run the openffet repository benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test        # build and run the benchmark's own tests

Workloads: rv32_canonical, route_congested, mesh_44k, served_mix (see
perfbench/README.md).  The script configures and builds perfbench/ (which
compiles the openffet sources under src/) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs the benchmark binary with every
FFET_* variable removed from its environment.  The binary's last stdout
line is the result object {"correct", "attempted", "failed", "metrics"};
this script checks its shape and passes the exit code through.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("FFET_")}


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no openffet sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the program and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and sorted(result) == ["attempted", "correct", "failed", "metrics"]
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and all(isinstance(m.get("value"), (int, float))
                    for m in result["metrics"].values()))


def main(argv):
    out = build_dir()
    build(out)
    if argv == ["--test"]:
        binary = os.path.join(out, "perfbench_tests")
        if not os.path.isfile(binary):
            fail("GTest not found at configure time; no perfbench_tests")
        return subprocess.run([binary], cwd=ROOT, env=clean_env()).returncode

    cmd = [os.path.join(out, "perfbench")] + argv + [
        "--commit", git_commit(), "--source-digest", source_digest(),
        "--out-dir", os.path.join(os.path.relpath(out, ROOT), "run")]
    proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode == 2 or not lines or not check_result(lines[-1]):
        sys.stdout.write(proc.stdout if proc.returncode == 2 else "")
        fail("benchmark run produced no result (exit %d)" % proc.returncode)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
