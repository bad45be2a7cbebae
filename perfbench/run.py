#!/usr/bin/env python3
"""End-to-end benchmark for the pdos library.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake project that pulls in the library sources) into
.bench_build/perfbench, measures the workload's set-up time over several
fresh processes, then runs the workload for S seconds and prints its
metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). At the seed recorded in digests.json the
result tables must also match their recorded FNV-1a digests. The exit
status is 0 only when the build worked and every check passed.

--selftest builds and runs the benchmark's own unit tests.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "pdos_perfbench")
SETUP_PROBES = 15
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configure (once) and build `target`; build logs go to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_identity():
    """Git commit (when the tree is a git checkout) and a SHA-256 of src/."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()


def setup_seconds(args):
    """Median time from spawning the benchmark to its first timed call."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        out = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0",
             "--work-dir", WORK_DIR, "--setup-only"],
            capture_output=True, text=True, timeout=60)
        words = out.stdout.split()
        if out.returncode != 0 or len(words) != 2 or words[0] != "ready":
            fail("set-up probe failed: " + out.stderr.strip())
        samples.append((int(words[1]) - start) * 1e-9)
    return statistics.median(samples), samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.selftest:
        build("perfbench_tests")
        sys.exit(subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_tests")]).returncode)
    if not args.workload:
        fail("--workload is required")

    build("pdos_perfbench")
    os.makedirs(WORK_DIR, exist_ok=True)
    setup_s, setup_samples = setup_seconds(args)

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    if args.seed == recorded["seed"] and args.workload in recorded["digests"]:
        command += ["--expect-digest", recorded["digests"][args.workload]]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail("benchmark exited with status %d" % run.returncode)
    result = json.loads(lines[-1])

    sha, src = source_identity()
    for line in lines[:-1]:
        if line.startswith("record "):
            record = json.loads(line[len("record "):])
            record["fingerprint"]["git_sha"] = sha
            record["fingerprint"]["src_sha256"] = src
            record["setup_s_samples"] = setup_samples
            line = "record " + json.dumps(record)
        print(line)

    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        print("metric %-32s %16.6g s" % ("setup_s", setup_s))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metric set differs from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(expected.items())))
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in wanted}
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
