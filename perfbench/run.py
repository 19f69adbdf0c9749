#!/usr/bin/env python3
"""Wire-to-verdict benchmark of the slin monitoring service.

Builds the slin sources of this checkout together with the benchmark driver
(perfbench/CMakeLists.txt) into the build directory, then runs one workload:

    python3 perfbench/run.py --workload <fleet|overlap|speculative> \
        --seed <n> --seconds <s> --trace <0|1>

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it repeats every
metric with its sample count, plus the host fingerprint and run details.
Each result is also written to <build>/results/. The exit code is 0 only when
every verdict agreed with the generator's ground truth where it must (no
unsound verdict) and no event was lost.

    python3 perfbench/run.py --selftest

builds and runs the ground-truth self-test of the generators instead.

The build directory is $CARGO_TARGET_DIR when set (relative paths are taken
from the checkout root), else .bench_build in the checkout root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
WORKLOADS = ("fleet", "overlap", "speculative")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the driver and self-test into out."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "Service.h")):
        fail("no slin sources next to perfbench/ (expected src/service)")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the paths and bytes of src/ and perfbench/ sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return args


def main():
    args = parse_args()
    if not args.selftest and args.workload not in WORKLOADS:
        fail("unknown workload %r (have %s)" %
             (args.workload, ", ".join(WORKLOADS)))
    out = build_dir()
    build(out)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")],
                                timeout=DRIVER_TIMEOUT_S).returncode)
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    command = [os.path.join(out, "perfbench_driver"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    if args.trace:
        command += ["--spans",
                    os.path.join(out, "spans-%s.bin" % args.workload)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing (exit %d)" % run.returncode)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "exit": run.returncode, "lines": [json.loads(l) for l in lines]}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as handle:
        json.dump(record, handle, indent=1)
    print("\n".join(lines))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
