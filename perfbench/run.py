#!/usr/bin/env python3
"""Build and run the Airfoil benchmark.

    python3 perfbench/run.py --workload airfoil-paper --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles the op2hpx libraries from ../src) into
.bench_build/perfbench under the repository root, then runs the benchmark
binary.  Build output goes to standard error; the binary's standard output
is passed through, and its last line is the JSON result.  --trace 1 also
writes the recorded spans to .bench_build/perfbench/traces/.  The exit
code is the binary's: 0 only when every output matched the seq oracle.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def build():
    """Configure once, then build the benchmark target; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    out = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return out.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--perturb", default="",
                    help="self-test: corrupt this driver's field before "
                         "each oracle check")
    args = ap.parse_args()

    op2_vars = sorted(k for k in os.environ if k.startswith("OP2_"))
    if op2_vars:
        return fail("refusing to run with " + ", ".join(op2_vars) +
                    " set: the benchmark measures the default program")
    if not os.path.exists(os.path.join(ROOT, "src", "airfoil",
                                       "CMakeLists.txt")):
        return fail(f"the op2hpx sources are missing under {ROOT}/src")
    if not build():
        return fail("build failed")

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
