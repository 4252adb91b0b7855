#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md beside this file).

    python3 e2e_bench/run.py --workload table2|churn|soak [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout. Builds the crawler libraries and the
benchmark binary from source into .bench_build/e2e_bench (CMake, one lock
so concurrent invocations build once), then runs one workload and passes its
output through: '#' diagnostics, then one JSON result line. Build output goes
to stderr. Exits non-zero without a result when the checkout cannot be built
or an output check fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD, "e2e_bench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2e_bench: no src/ next to the benchmark; run it from a "
                 "full checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for command in (
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs],
        ):
            if subprocess.run(command, stdout=sys.stderr).returncode != 0:
                sys.exit("e2e_bench: build failed: " + " ".join(command))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # The binary validates every value and owns the defaults.
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite golden/<workload>.tsv from this run")
    args = parser.parse_args()
    build()
    command = [BINARY, "--workload", args.workload, "--trace", str(args.trace)]
    for flag, value in (("--seed", args.seed), ("--seconds", args.seconds)):
        if value is not None:
            command += [flag, value]
    golden = os.path.join(HERE, "golden")
    if args.write_golden:
        command += ["--outcomes-out",
                    os.path.join(golden, args.workload + ".tsv")]
    else:
        command += ["--golden-dir", golden]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD, "trace-%s.csv" % args.workload)]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
