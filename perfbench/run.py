#!/usr/bin/env python3
"""Builds and runs the lazyrep end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lazyrep checkout. The first call configures and
builds `perfbench/` (the repository's libraries from `src/` plus the
benchmark program `lazyrep_perfbench.cc`) as a Release build under
`$CARGO_TARGET_DIR` (default `.bench_build`); later calls reuse it.
The program runs the workload in a child process, checks every run for
correctness and prints a report. This script forwards the report, adds
the build's provenance, and ends its output with the program's result
object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see BENCHMARK.json). The exit code is the program's: 0 for
a correct run, non-zero for a violation or a failed build.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A benchmark run ends well inside this; a hung one is killed and fails.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "lazyrep_perfbench")


def build(out_dir):
    """Configures (once) and builds the program; returns its path."""
    # The compiler's scratch files stay inside the build directory too.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = os.path.join(out_dir, "lazyrep_perfbench")
    log_path = os.path.join(out_dir, "build.log")
    # Concurrent invocations in one checkout share the build.
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.exists(os.path.join(out_dir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target",
                      "lazyrep_perfbench", "-j", jobs])
        with open(log_path, "w") as build_log:
            for step in steps:
                try:
                    proc = subprocess.run(step, stdout=build_log,
                                          stderr=subprocess.STDOUT, env=env,
                                          timeout=BUILD_TIMEOUT_S)
                except (OSError, subprocess.TimeoutExpired) as err:
                    log(f"build step {' '.join(step)} failed: {err}")
                    return None
                if proc.returncode != 0:
                    build_log.flush()
                    with open(log_path) as f:
                        log(f.read()[-4000:])
                    log(f"build step {' '.join(step)} failed")
                    return None
    return binary if os.path.exists(binary) else None


def source_digest():
    """SHA-256 over the sources the benchmark builds (names and bytes)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    if binary is None:
        return 1
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if len(lines) < 2:
        log(f"benchmark exited {proc.returncode} without a result")
        return proc.returncode or 1
    result_line = lines[-1]
    try:
        result = json.loads(result_line)
    except json.JSONDecodeError:
        log(f"benchmark exited {proc.returncode} without a result")
        return proc.returncode or 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("benchmark result has unexpected keys")
        return 1

    provenance = {}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        else:
            print(line)
    provenance["git_sha"] = git_sha()
    provenance["source_sha256"] = source_digest()
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(result_line, flush=True)
    if proc.returncode == 0 and not result["correct"]:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
