#!/usr/bin/env python3
"""Captures a committed BENCH_*.json artifact from one bench binary.

    python3 bench/capture.py build/bench_e9_service > BENCH_e9.json

Runs the binary RUNS times back to back, so every row's samples are
spread over the whole capture rather than taken in one burst, and merges
the runs row by row: each numeric field is the median over the runs and
"runs" records their count. The first output line is a host row,

    {"name": "host", "cpu": ..., "nproc": ..., "compiler": ...,
     "flags": ..., "git_sha": ...}

naming the machine and build the figures came from. Its name matches no
benchmark filter, so loaders that select rows by name prefix or by a
counter field skip it. git_sha ends in "-dirty" when the checkout has
uncommitted changes under src/ or bench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 3


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cmake_cache(build_dir):
    """The CMakeCache.txt entries of the binary's build directory."""
    entries = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as handle:
            for line in handle:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    entries[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return entries


def compiler_and_flags(build_dir):
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(f for f in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if f)
    return version, flags


def git_sha(root):
    def git(*args):
        return subprocess.run(["git", "-C", root] + list(args),
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "none"
    dirty = git("status", "--porcelain", "--", "src", "bench").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def run_once(binary):
    out = subprocess.run([binary], capture_output=True, text=True,
                         check=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def merge(runs):
    merged = []
    for row in runs[0]:
        samples = [next(r for r in run if r["name"] == row["name"])
                   for run in runs]
        out = {}
        for key, value in row.items():
            if isinstance(value, int) and not isinstance(value, bool):
                out[key] = statistics.median_low(s[key] for s in samples)
            elif isinstance(value, float):
                out[key] = round(statistics.median(s[key] for s in samples), 3)
            else:
                out[key] = value
        out["runs"] = len(runs)
        merged.append(out)
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("binary")
    opts = parser.parse_args()
    binary = os.path.abspath(opts.binary)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    compiler, flags = compiler_and_flags(os.path.dirname(binary))
    host = {"name": "host", "cpu": cpu_model(), "nproc": os.cpu_count(),
            "compiler": compiler, "flags": flags, "git_sha": git_sha(root)}
    runs = [run_once(binary) for _ in range(RUNS)]
    print(json.dumps(host))
    for row in merge(runs):
        print(json.dumps(row))


if __name__ == "__main__":
    sys.exit(main())
