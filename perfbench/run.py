#!/usr/bin/env python3
"""Runs one workload of the paper-scale benchmark.

    python3 perfbench/run.py --workload paper_warm --seed 1 --seconds 10 --trace 0

Run from the repository root.  The script builds perfbench/ (the p2sim
libraries from src/ plus the p2bench binary) under .bench_build/, makes
the fixture for the seed if this build has none yet (one cold campaign in
a child process, so it counts toward neither the run's timings nor its
peak RSS), then runs the workload.  The last line of standard output is
the result JSON; the exit code is 0 only when every output checked out.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "p2bench"
WORKLOADS = ("paper_cold", "paper_warm", "paper_ckpt")
# Fixtures kept per build; older seeds are pruned.
KEEP_FIXTURES = 12
BUILD_TIMEOUT_S = 840
FIXTURE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configures and builds p2bench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no p2sim sources under {ROOT / 'src'}; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "p2bench",
                  "-j", str(min(4, cpus()))])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed")
    return BINARY


def fixture_dir(binary, seed, toy=False):
    """The fixture directory for this build and seed (built on demand)."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    base = BUILD_ROOT / "fixtures" / digest
    path = base / f"{'toy-' if toy else ''}seed-{seed}"
    if (path / "meta.txt").is_file():
        return path
    base.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "fixture", "--seed", str(seed), "--out", str(path)]
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=FIXTURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fixture for seed {seed} timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"fixture for seed {seed} failed")
    print(proc.stdout.strip(), file=sys.stderr)
    prune_fixtures(base.parent, keep_build=base, keep_fixture=path)
    return path


def prune_fixtures(fixtures_root, keep_build, keep_fixture):
    """Drops other builds' fixtures and all but the newest of this one's."""
    for build_dir in fixtures_root.iterdir():
        if build_dir != keep_build:
            shutil.rmtree(build_dir, ignore_errors=True)
    mine = sorted((p for p in keep_build.iterdir() if p.is_dir()),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for old in mine[KEEP_FIXTURES:]:
        if old != keep_fixture:
            shutil.rmtree(old, ignore_errors=True)


def run_binary(binary, fixture, workload, seed, seconds, trace, toy=False,
               capture=False):
    """Runs `p2bench run`; returns the CompletedProcess."""
    work = BUILD_ROOT / "work" / f"{workload}-{seed}-{os.getpid()}"
    cmd = [str(binary), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--fixture", str(fixture), "--work", str(work)]
    if trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if toy:
        cmd.append("--toy")
    try:
        return subprocess.run(cmd, text=True, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    binary = build()
    fixture = fixture_dir(binary, args.seed)
    sys.stdout.flush()
    try:
        proc = run_binary(binary, fixture, args.workload, args.seed,
                          args.seconds, args.trace == 1)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
