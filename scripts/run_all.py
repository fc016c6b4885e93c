#!/usr/bin/env python3
"""Run every example config through the CLI and report exit codes and
the sha256 of every CSV/JSON output except manifest.json, so that two
checkouts, also under different out roots, can be compared by diffing this
script's output.  After each config it also prints the process's peak
resident set so far (``ru_maxrss``, in MB as the benchmark's
``peak_rss_mb`` counts them), on its own line, so the digest lines diff
cleanly.

Usage: python scripts/run_all.py [--out-root OUT]
"""

import argparse
import hashlib
import json
import os
import resource
import sys

from randerslab.cli import main as cli_main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "configs")


def print_digests(out):
    """sha256 of each CSV/JSON file in ``out``; the manifest carries a
    timestamp, so it is left out."""
    if not os.path.isdir(out):
        return
    for name in sorted(os.listdir(out)):
        if name.endswith((".csv", ".json")) and name != "manifest.json":
            with open(os.path.join(out, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"   {digest}  {os.path.basename(out)}/{name}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-root", default="out")
    args = parser.parse_args()

    failures = 0
    for fname in sorted(os.listdir(CONFIG_DIR)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(CONFIG_DIR, fname)
        with open(path) as fh:
            experiment = json.load(fh)["experiment"]
        out = os.path.join(args.out_root, experiment)
        print(f"== {experiment} ({fname})")
        code = cli_main([experiment, "--config", path, "--out", out])
        print(f"   exit code {code}")
        print_digests(out)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"   peak so far {peak:.2f} MB")
        failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
