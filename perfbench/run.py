#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sparse_skip --seed 1 --seconds 36 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the simulator
libraries plus the rsr_perfbench program) into $CARGO_TARGET_DIR, or into
.bench_build when that is unset; later runs only bring the build up to date.
The last line of standard output is the program's JSON result. Build logs go
to standard error. Files are written only inside the build directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds; this bounds set-up, checks and overrun.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configure (once) and build rsr_perfbench; return its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(out_dir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "rsr_perfbench",
                  "-j", jobs])
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S, env=env)
    return os.path.join(out_dir, "rsr_perfbench")


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Run one workload of the rsr-sim benchmark and print "
                    "its JSON result as the last line.")
    p.add_argument("--workload", required=True,
                   help="sparse_skip, dense_run or design_sweep")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--goldens", os.path.join(HERE, "goldens"),
           "--out", os.path.join(out_dir, "out", args.workload)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
