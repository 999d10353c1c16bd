#!/usr/bin/env python3
"""Compares hetbench result files of two commits, metric by metric.

    python3 hetbench/compare.py --base old/*.json --new new/*.json

Each file is a result file the benchmark writes to .bench_build/hetbench-out
(one run of one workload). Per workload and metric it prints the median of
each side and the change. It refuses to compare results whose host
fingerprints differ (nproc, CPU model, ISA, gemm/trsm kernel, build type),
or files of different workloads or trace modes mixed on one line.
"""
import argparse
import json
import statistics
import sys


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def metrics(run, section):
    """The gated metrics of a result file, or its not_gated block."""
    if section == "metrics":
        return run["result"]["metrics"]
    return run.get(section, {})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)

    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True)
                    for r in base + new}
    if len(fingerprints) != 1:
        print("refusing to compare: host fingerprints differ:", file=sys.stderr)
        for fp in sorted(fingerprints):
            print("  " + fp, file=sys.stderr)
        return 2

    def by_key(runs):
        out = {}
        for r in runs:
            out.setdefault((r["workload"], r["trace"]), []).append(r)
        return out

    b, n = by_key(base), by_key(new)
    print("fingerprint: " + fingerprints.pop())
    status = 0
    for key in sorted(set(b) | set(n)):
        if key not in b or key not in n:
            print("%s trace %d: only on one side, skipped" % key)
            continue
        print("%s (trace %d): %d base runs, %d new runs"
              % (key[0], key[1], len(b[key]), len(n[key])))
        for section, label in (("metrics", ""), ("not_gated", " (not gated)")):
            for name, first in metrics(b[key][0], section).items():
                def med(runs):
                    vals = [metrics(r, section)[name]["value"] for r in runs
                            if name in metrics(r, section)]
                    return statistics.median(vals) if vals else None
                mb, mn = med(b[key]), med(n[key])
                if mb is None or mn is None:
                    print("  %-32s missing on one side" % name)
                    status = 1
                    continue
                change = (mn - mb) / mb * 100.0 if mb else float("nan")
                print("  %-32s %14.6g -> %14.6g %-8s %+7.2f%%%s"
                      % (name, mb, mn, first["unit"], change, label))
        for side, runs in (("base", b[key]), ("new", n[key])):
            failed = sum(r["result"]["failed"] for r in runs)
            attempted = sum(r["result"]["attempted"] for r in runs)
            print("  %s: %d failed / %d attempted" % (side, failed, attempted))
    return status


if __name__ == "__main__":
    sys.exit(main())
