"""One benchmark child: run a workload's experiments through randerslab.cli.

Started by run.py as a fresh process per workload run.  Setup (interpreter
start, ``import randerslab`` from the checkout's ``src``, config load, and
tracing when asked) ends where the first experiment starts.  The child
writes one JSON result with its timings, exit codes, output digests and
summary flags, plus its spans when traced.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from workloads import OWN_SEED, SUMMARY_FLAGS, WORKLOADS

CHECKED_SUFFIXES = (".csv", ".json")


def digest_outputs(outdir):
    """sha256 of every CSV/JSON output except the timestamped manifest."""
    digests = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(CHECKED_SUFFIXES) and name != "manifest.json":
            with open(os.path.join(outdir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def summary_flags(experiment, outdir):
    """The summary flag the CLI does not turn into an exit code, read from
    the manifest (absent when the run failed)."""
    flag = SUMMARY_FLAGS.get(experiment)
    if flag is None:
        return {}
    try:
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            summary = json.load(fh)["summary"]
    except FileNotFoundError:
        return {flag: None}
    return {flag: summary.get(flag)}


def _environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent before spawning")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    from randerslab import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"randerslab imported from {cli.__file__}, not {src}")

    runs = []
    config_dir = os.path.join(args.workdir, "configs")
    os.makedirs(config_dir)
    for fname, overrides in WORKLOADS[args.workload]:
        with open(os.path.join(args.root, "scripts", "configs", fname),
                  encoding="utf-8") as fh:
            config = json.load(fh)
        config["parameters"].update(overrides)
        path = os.path.join(config_dir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        experiment = config["experiment"]
        outdir = os.path.join(args.workdir, "out", experiment)
        argv = [experiment, "--config", path, "--out", outdir]
        if fname not in OWN_SEED:
            argv += ["--seed", str(args.seed)]
        runs.append((fname, experiment, outdir, argv))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0 = time.monotonic()
    cpu0 = time.process_time()
    codes = [cli.main(argv) for *_, argv in runs]
    wall = time.monotonic() - t0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": t0 - args.spawned,
        "peak_rss_mb": peak_rss_mb,
        "environment": _environment(),
        "experiments": [
            {"config": fname, "exit_code": code,
             "digests": digest_outputs(outdir) if os.path.isdir(outdir) else {},
             "flags": summary_flags(experiment, outdir)}
            for (fname, experiment, outdir, _), code in zip(runs, codes)],
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        with open(os.path.join(args.workdir, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(os.path.join(args.workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
