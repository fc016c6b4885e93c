#!/usr/bin/env python3
"""Record the sha256 of every workload output for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-49

Runs one untraced child per workload and seed and writes
perfbench/digests.json, which run.py checks outputs against.  Record at
the commit whose outputs are the reference; a run that exits non-zero or
reports a false summary flag is not recorded and makes this script fail.
"""

import argparse
import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="inclusive range such as 0-49")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="record only this workload")
    args = parser.parse_args()
    try:
        digests = run.load_digests()
    except FileNotFoundError:
        digests = {}
    workloads = [args.workload] if args.workload else sorted(WORKLOADS)
    for workload in workloads:
        for seed in args.seeds:
            workdir = os.path.join(run.WORK, "work", f"record-{workload}-{seed}")
            try:
                result, _ = run.run_child(workload, seed, 0, workdir, timeout=600)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result is None:
                print(f"{workload} seed {seed}: child failed", file=sys.stderr)
                return 1
            for exp in result["experiments"]:
                problems = run.check_experiment(exp, None)
                if problems:
                    print(f"{workload} seed {seed} {exp['config']}: {problems}",
                          file=sys.stderr)
                    return 1
            digests.setdefault(workload, {})[str(seed)] = {
                e["config"]: e["digests"] for e in result["experiments"]}
            print(f"{workload} seed {seed}: recorded", flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
