#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds the benchmark and the catt_d
daemon from source with dune into .bench_build/, then runs one workload;
the last line of standard output is the result object.  See
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
TARGETS = ["perfbench/bench.exe", "perfbench/selftest.exe", "bin/catt_d.exe"]
WORKLOADS = ["grid-static", "grid-runtime", "serve-warm"]


def exe(target):
    return os.path.join(BUILD_DIR, "default", target)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a full checkout "
                 "(dune-project and lib/ are missing)")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    # the shared dune cache lives outside the checkout: keep it off
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--cache=disabled"] + TARGETS
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="feed every output check a tampered result")
    a = p.parse_args()
    if not a.self_test and (a.workload is None or a.seconds is None):
        p.error("--workload and --seconds are required")
    build()
    if a.self_test:
        os.execv(exe(TARGETS[1]), [exe(TARGETS[1])])
    os.execv(exe(TARGETS[0]), [
        exe(TARGETS[0]), "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--catt-d", exe(TARGETS[2])])


if __name__ == "__main__":
    main()
