#!/usr/bin/env python3
"""Builds the hetgrid benchmark from the checkout's sources and runs it.

Run from the root of a checkout:

    python3 hetbench/run.py --workload coarse_static --seed 1 --seconds 30 --trace 0
    python3 hetbench/run.py --test      # the benchmark's own helper tests

The build goes to .bench_build/hetbench (Release); results and span files
to .bench_build/hetbench-out. The last line of stdout is the result object.
A failed build or a failed check exits non-zero.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "hetbench")
OUT = os.path.join(".bench_build", "hetbench-out")
RUN_TIMEOUT_S = 175


def build(target):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                   stdout=sys.stderr, env=env, check=True)


def main(argv):
    if argv == ["--test"]:
        build("test_harness")
        return subprocess.run([os.path.join(BUILD, "test_harness")]).returncode
    flags = argv[0::2]
    if sorted(flags) != ["--seconds", "--seed", "--trace", "--workload"] \
            or len(argv) != 8:
        print("usage: run.py --workload <name> --seed <n> --seconds <s> "
              "--trace <0|1>", file=sys.stderr)
        return 2
    build("hetbench")
    cmd = [os.path.join(BUILD, "hetbench")] + argv + ["--out", OUT]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("hetbench did not finish in %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, OSError) as e:
        print("hetbench build failed: %s" % e, file=sys.stderr)
        sys.exit(1)
