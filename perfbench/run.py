#!/usr/bin/env python3
"""randerslab benchmark: seeded CLI workloads timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wep-ensemble --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare RESULTS_PARENT RESULTS_CHANGE

A run starts one fresh child process (perfbench/child.py) after another,
each running every experiment config of the workload through
``randerslab.cli.main`` in-process, until ``--seconds`` have passed and at
least three children (two untraced and two traced with ``--trace 1``) have
finished.  It reports the median over children.  With ``--trace 0`` it
prints the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced children and prints the per-layer metrics,
including the tracing overhead (median traced minus median untraced wall
time).  Every experiment run is checked: exit code 0, the summary flags the
CLI does not turn into an exit code, and the sha256 of every CSV/JSON output
except ``manifest.json`` against perfbench/digests.json when that file has
digests for the seed (otherwise against the run's first child).  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Each run also saves a record with the environment under
``.perfbench/results`` for ``--compare``.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
from workloads import OWN_SEED, WORKLOADS  # noqa: E402

# BLAS/OpenMP pools pinned to one thread: with the default two-thread
# OpenBLAS the dim-1024 flow's wall time varied by 60 % between runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_CHILDREN = 3
MIN_TRACED = 2
RUN_LIMIT_S = 165.0  # a run must end within 180 s
END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed):
    env = {"cpu_count": os.cpu_count(), "seed": seed,
           "threads": {v: "1" for v in THREAD_VARS}, "git_commit": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def run_child(workload, seed, trace, workdir, timeout):
    """Run one child to completion in ``workdir``, which the caller removes;
    returns (result or None, spans or None)."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    os.makedirs(workdir)
    log_path = os.path.join(workdir, "child.log")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
             "--workload", workload, "--seed", str(seed), "--trace",
             str(trace), "--workdir", workdir, "--spawned", repr(spawned)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    result = spans = None
    if proc.returncode == 0:
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        if trace:
            with open(os.path.join(workdir, "spans.json"), encoding="utf-8") as fh:
                spans = json.load(fh)
    else:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(f"child exited with {proc.returncode}:\n{tail}", file=sys.stderr)
    return result, spans


def check_experiment(exp, expected):
    """Problems with one experiment run: exit code, summary flags, and the
    output digests against ``expected`` (None skips the digest check)."""
    problems = []
    if exp["exit_code"] != 0:
        problems.append(f"exit code {exp['exit_code']}")
    for flag, value in exp["flags"].items():
        if value is not True:
            problems.append(f"{flag} = {value}")
    if expected is not None and exp["digests"] != expected:
        changed = sorted(name for name in set(exp["digests"]) | set(expected)
                         if exp["digests"].get(name) != expected.get(name))
        problems.append(f"output digests differ: {changed}")
    return problems


def check_children(results, n_configs, recorded):
    """Count attempted and failed experiment runs over all children.

    With ``recorded`` digests ({config: {file: sha256}}) every output must
    match them; without, every child must match the first child that ran.
    A child that produced no result fails all its experiment runs.
    """
    attempted = failed = 0
    problems = []
    reference = recorded
    for k, result in enumerate(results):
        attempted += n_configs
        if result is None:
            failed += n_configs
            problems.append(f"child {k}: no result")
            continue
        for exp in result["experiments"]:
            if reference is None or exp["config"] not in reference:
                expected = None
            else:
                expected = reference[exp["config"]]
            found = check_experiment(exp, expected)
            if found:
                failed += 1
                problems.extend(f"child {k} {exp['config']}: {p}" for p in found)
        if reference is None:
            reference = {e["config"]: e["digests"] for e in result["experiments"]}
    return attempted, failed, problems


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def layer_medians(traced):
    """Median of each per-layer metric over traced children; counts must
    repeat exactly, so a count that differs between children is a problem."""
    out, problems = {}, []
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between children: {values}")
            out[name] = statistics.median_low(values)
        else:
            out[name] = statistics.median(values)
    return out, problems


def measure(workload, seed, seconds, trace, tag):
    """Run children until the time is up; returns (results, traced, spans)."""
    start = time.monotonic()
    results, traced_flags, last_spans = [], [], None
    longest = 0.0
    k = 0
    while True:
        traced = bool(trace and k % 2 == 1)
        elapsed = time.monotonic() - start
        began = time.monotonic()
        workdir = os.path.join(WORK, "work", f"{tag}-{k}")
        try:
            result, spans = run_child(workload, seed, int(traced), workdir,
                                      timeout=max(1.0, RUN_LIMIT_S - elapsed))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        longest = max(longest, time.monotonic() - began)
        results.append(result)
        traced_flags.append(traced)
        if spans is not None:
            last_spans = spans
        k += 1
        elapsed = time.monotonic() - start
        n_plain = traced_flags.count(False)
        n_traced = traced_flags.count(True)
        enough = (n_plain >= (MIN_TRACED if trace else MIN_CHILDREN)
                  and (not trace or n_traced >= MIN_TRACED))
        if (enough and elapsed >= seconds) or elapsed + longest > RUN_LIMIT_S:
            break
    return results, traced_flags, last_spans


def run(args):
    bench = load_benchmark()
    recorded = load_digests().get(args.workload, {}).get(str(args.seed))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    results, traced_flags, spans = measure(
        args.workload, args.seed, args.seconds, args.trace, tag)

    n_configs = len(WORKLOADS[args.workload])
    attempted, failed, problems = check_children(results, n_configs, recorded)
    plain = [r for r, t in zip(results, traced_flags) if r and not t]
    traced = [r for r, t in zip(results, traced_flags) if r and t]
    if not plain or (args.trace and not traced):
        problems.append("no child finished")
        values = {}
    else:
        values = {key: median_of(plain, key) for key in END_TO_END}
    if args.trace and traced and plain:
        layers, count_problems = layer_medians(traced)
        problems.extend(count_problems)
        values.update(layers)
        values["trace.overhead_s"] = (median_of(traced, "wall_s")
                                      - values["wall_s"])
        values["failed_frac"] = failed / attempted

    check = ("exit codes, summary flags and sha256 against digests recorded "
             "for this seed" if recorded is not None else
             "exit codes, summary flags and sha256 agreement between children "
             "(no digests recorded for this seed)")
    for fname, why in OWN_SEED.items():
        if fname in (f for f, _ in WORKLOADS[args.workload]):
            check += f"; {fname} runs at its own seed: {why}"
    env = environment(args.seed)
    for r in results:
        if r is not None:
            env.update(r["environment"])
            break
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    correct = not problems and failed == 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{traced_flags.count(False)} untraced and {traced_flags.count(True)}"
          f" traced children")
    print(f"check: {check}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for p in problems:
        print(f"FAILED: {p}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")

    if args.save:
        os.makedirs(args.save, exist_ok=True)
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "check": check, "environment": env,
            "problems": problems,
            "children": [None if r is None else
                         {k: v for k, v in r.items() if k != "experiments"}
                         | {"traced": t} for r, t in zip(results, traced_flags)],
            "result": {"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics},
        }
        with open(os.path.join(args.save, tag + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        if spans is not None:
            with open(os.path.join(args.save, tag + "-spans.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(spans, fh)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# compare mode


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, better):
    """better / worse / unchanged / unresolved for one workload x metric.

    ``parent`` and ``change`` are lists of (seed, value).  A gain needs the
    change to win at least nine tenths of the pairs (paired by seed where
    both sides ran it, else in order) and the medians to differ by more than
    the parent's quartile distance.  Spread wider than the bound on either
    side is unresolved unless every run of one side beats every run of the
    other.  Otherwise a median worse by more than the bound is worse.
    """
    sign = 1.0 if better == "lower" else -1.0
    a = [v for _, v in parent]
    b = [v for _, v in change]
    qa, qb = quartiles(a), quartiles(b)
    by_seed = dict(change)
    pairs = [(v, by_seed[s]) for s, v in parent if s in by_seed] or list(zip(a, b))
    wins = sum(sign * (x - y) > 0 for x, y in pairs)
    gain = sign * (qa[1] - qb[1])
    if gain > 0 and wins >= 0.9 * len(pairs) and abs(gain) > qa[2] - qa[0]:
        return "better"
    spread = max((qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0,
                 (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0)
    all_apart = (all(sign * (x - y) > 0 for x in a for y in b)
                 or all(sign * (y - x) > 0 for x in a for y in b))
    if spread > bound and not all_apart:
        return "unresolved"
    if -gain > bound * abs(qa[1]):
        return "worse"
    return "unchanged"


def load_results(directory):
    """{workload: {metric: [(seed, value)]}} from the untraced records whose
    outputs passed their checks; runs that failed are counted in
    ``out[workload]["failed runs"]``."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if not isinstance(record, dict) or record.get("trace") != 0:
            continue
        runs = out.setdefault(record["workload"], {"failed runs": 0})
        if not record["result"]["correct"]:
            runs["failed runs"] += 1
            continue
        for name, m in record["result"]["metrics"].items():
            runs.setdefault(name, []).append((record["seed"], m["value"]))
    return out


def compare(parent_dir, change_dir):
    bench = load_benchmark()
    parent, change = load_results(parent_dir), load_results(change_dir)
    print(f"{'workload':16s} {'metric':12s} {'side':6s} {'n':>3s} "
          f"{'q1':>10s} {'median':>10s} {'q3':>10s}  verdict")
    for workload in sorted(set(parent) | set(change)):
        failed = [side.get(workload, {}).get("failed runs", 0)
                  for side in (parent, change)]
        if any(failed):
            print(f"{workload:16s} failed runs left out: parent {failed[0]}, "
                  f"change {failed[1]}")
        for m in bench["end_to_end"]:
            a = parent.get(workload, {}).get(m["name"], [])
            b = change.get(workload, {}).get(m["name"], [])
            if not a or not b:
                print(f"{workload:16s} {m['name']:12s} missing on one side")
                continue
            v = verdict(a, b, m["bound"], m["better"])
            base = statistics.median(x for _, x in a)
            delta = statistics.median(x for _, x in b) / base - 1 if base else 0.0
            v += f" (median {delta:+.1%} of parent's {base:.4g} {m['unit']})"
            for side, vals, label in (("parent", a, ""), ("change", b, v)):
                q1, med, q3 = quartiles([x for _, x in vals])
                print(f"{workload:16s} {m['name']:12s} {side:6s} {len(vals):3d} "
                      f"{q1:10.4g} {med:10.4g} {q3:10.4g}  {label}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=os.path.join(WORK, "results"),
                        help="directory for run records ('' to skip)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two directories of saved records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "randerslab", "cli.py")):
        print(f"no randerslab sources under {ROOT}/src", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
