#!/usr/bin/env python3
"""Builds and runs the vqlsrv benchmark.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all            # every workload, traced
    python3 perfbench/run.py --all --smoke    # the seconds-long smoke mode

Run it from the root of the repository. It configures and builds
perfbench/CMakeLists.txt into .bench_build/perfbench (vqlsrv and the load
generator, from the repository's sources), then runs the load generator,
whose last line of output is one JSON object. The exit code is non-zero if
the build fails, an answer is wrong or vqlsrv breaks its drain contract.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["browse", "ingest", "archive"]


def build():
    """Configures (once) and builds vqlsrv and perfbench; returns the paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no vqldb sources next to perfbench/ (expected src/)")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "vqlsrv", "perfbench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("run.py: build failed (see %s)" % log_path)
    return os.path.join(BUILD, "vqlsrv"), os.path.join(BUILD, "perfbench")


def git_sha():
    # The ceiling keeps git from finding a repository above this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_one(binaries, workload, seed, seconds, trace, args):
    vqlsrv, perfbench = binaries
    cmd = [perfbench, "--vqlsrv", vqlsrv, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--work-dir", os.path.join(BUILD_ROOT, "work"),
           "--trace-dir", os.path.join(BUILD_ROOT, "traces"),
           "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    if args.write_rate is not None:
        cmd += ["--write-rate", str(args.write_rate)]
    if args.scan_share is not None:
        cmd += ["--scan-share", str(args.scan_share)]
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload with the traced replay")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small archive, short windows: a run takes seconds")
    p.add_argument("--inject-mismatch", action="store_true",
                   help="alter one answer before the correctness gate "
                        "(checks that the gate fails the run)")
    p.add_argument("--write-rate", type=float,
                   help="override the workload's writes per second")
    p.add_argument("--scan-share", type=float,
                   help="override the archive workload's share of scans")
    args = p.parse_args()
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    seconds = args.seconds if args.seconds is not None else (
        1 if args.smoke else 10)

    binaries = build()
    if not args.all:
        return run_one(binaries, args.workload, args.seed, seconds,
                       args.trace == 1, args)
    worst = 0
    for w in WORKLOADS:
        print("=== %s ===" % w)
        rc = run_one(binaries, w, args.seed, seconds, True, args)
        worst = worst or rc
    return worst


if __name__ == "__main__":
    sys.exit(main())
