#!/usr/bin/env python3
"""Check that the test suite kills each mutant of a fixed table.

Each row of ``MUTANTS`` names a file under ``src/randerslab``, an exact
text in it, the text that replaces it, the pytest node ids of which at
least one must fail on the mutated code, and the defect the mutant stands
for.  For each row the script copies ``src/`` to a temporary directory,
replaces the one occurrence of the old text there, and runs only the row's
node ids against the copy.  It prints one line per row: killed or
survived, and the seconds it took.

It exits 1 when a mutant survives or its old text does not occur exactly
once, so a change that moves the mutated code also updates its row.  A
change that adds a test for a defect adds the defect's row here.

Usage: python scripts/mutants.py [NAME ...]   (default: every row)
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/randerslab
    old: str
    new: str
    tests: tuple
    reason: str


MUTANTS = [
    Mutant("rk4-weight", "dynamics.py",
           "acc *= dt / 6\n", "acc *= dt / 6.006\n",
           ("tests/test_dynamics.py::TestClosedFormFlow::"
            "test_rk4_fourth_order_against_exact_tanh_flow",),
           "an RK4 weight off by 0.1 % leaves the march first order"),
    Mutant("monotonic-allowance", "observables.py",
           "allowed = max(1, (len(meds) - 1) // 10)",
           "allowed = max(2, (len(meds) - 1) // 10)",
           ("tests/test_cli.py::test_flag_can_read_false[monotonic_ok]",),
           "monotonic_ok forgives two inversions of three sizes"),
    Mutant("median-kth", "concentration.py",
           "v.partition([k, -1] if odd else [k - 1, k, -1])",
           "v.partition([k] if odd else [k - 1, k])",
           ("tests/test_concentration.py::TestMedianInPlace::"
            "test_equals_np_median_bit_for_bit",),
           "a kth list without numpy's -1 can leave -0.0 for 0.0 in the "
           "middle, or miss a NaN"),
    Mutant("csv-tiny-bound", "runio.py",
           "odd = (mag < 1e-4)", "odd = (mag < 1e-5)",
           ("tests/test_cli.py::TestCsvRowFormat::"
            "test_one_tiny_or_huge_value_is_rewritten",),
           "orjson writes 3e-5 as 0.00003 where str writes 3e-05"),
    Mutant("csv-huge-bound", "runio.py",
           "| ~(mag < 1e16)", "| (mag > 1e16)",
           ("tests/test_cli.py::TestCsvRowFormat::"
            "test_one_tiny_or_huge_value_is_rewritten",
            "tests/test_cli.py::TestCsvRowFormat::"
            "test_odd_runs_of_any_share_are_written_by_str"),
           "1e16 and NaN go to orjson, which writes 1e16 and null where str "
           "writes 1e+16 and nan"),
    Mutant("csv-cut-offset", "runio.py",
           "np.flatnonzero(odd[1:] != odd[:-1]) + 1)",
           "np.flatnonzero(odd[1:] != odd[:-1]))",
           ("tests/test_cli.py::TestCsvRowFormat::"
            "test_odd_runs_of_any_share_are_written_by_str",),
           "each run is cut one element early, so an odd element's "
           "neighbour goes to str and the odd element to orjson"),
    Mutant("csv-array-value-test", "runio.py",
           "if mag.min() >= 1e-4 and mag.max() < 1e16:",
           "if mag.min() >= 1e-4:",
           ("tests/test_cli.py::TestCsvRowFormat::"
            "test_one_tiny_or_huge_value_is_rewritten",),
           "an array whose only odd elements are huge is left as orjson "
           "writes it"),
    Mutant("csv-float32-arrays", "runio.py",
           "if flat.dtype != np.float64 or not flat.size:",
           "if not flat.size:",
           ("tests/test_cli.py::TestCsvRowFormat::"
            "test_other_arrays_take_the_str_path[float32]",),
           "orjson writes a float32 array's elements as float32, 0.1 where "
           "str writes 0.10000000149011612"),
    Mutant("csv-no-rewrite", "runio.py",
           "if by_str else", "if False else",
           ("tests/test_cli.py::TestCsvRowFormat::"
            "test_one_tiny_or_huge_value_is_rewritten",),
           "the odd runs are written by orjson too: 0.00003, 1e16 and null "
           "where str writes 3e-05, 1e+16 and nan"),
    Mutant("csv-always-str", "runio.py",
           "    return memoryview(text)[1:-1]\n",
           '    return ",".join(map(str, flat.tolist())).encode()\n',
           ("tests/test_cli.py::TestCsvRowFormat::"
            "test_in_range_array_rows_take_the_orjson_path",),
           "every element is written by str and orjson is never used"),
    Mutant("rate-negation", "geometry.py",
           "np.subtract(1.0, t, out=t)\n        t *= -a\n",
           "t -= 1.0\n        t *= a\n",
           ("tests/test_dynamics.py::TestBufferedMarch::"
            "test_phase_step_equals_the_expression_form[tanh-negative]",),
           "the tanh rate folds its negation into a (t^2 - 1), so a zero "
           "momentum at a saturated u changes its sign"),
    Mutant("metric-kind", "lipschitz.py",
           'return ("euclidean" if self.u_scale == self.p_scale == 1.0\n'
           '                else "weighted")',
           'return "euclidean"',
           ("tests/test_lipschitz.py::TestBoxMetric::"
            "test_kind_says_whether_both_scales_are_one",),
           "the report calls a weighted metric euclidean"),
    Mutant("blow-up-index", "dynamics.py",
           "raise BlowUpError(round(t0 / dt) + 1, t0 + dt)",
           "raise BlowUpError(round(t0 / dt), t0 + dt)",
           ("tests/test_dynamics.py::TestStepFlow::test_blow_up_reports_step",),
           "step_flow numbers a blow-up one step before run_cycles does"),
    Mutant("instant-grid", "dynamics.py",
           "n, rem = divmod(step + steps_per_T, 2 * steps_per_T)",
           "n, rem = divmod(step + steps_per_T - 1, 2 * steps_per_T)",
           ("tests/test_dynamics.py::TestSchedule::"
            "test_instant_step_and_equilibrium_cycle_are_inverses",),
           "the snapshots are taken one step after the equilibrium instants"),
    Mutant("snapshot-bound", "dynamics.py",
           "if not snapshots[-1].h_within_bound:",
           "if False:",
           ("tests/test_dynamics.py::TestRunCycles::"
            "test_snapshot_h_bound_enforced",),
           "a march whose Hamiltonian breaks its bound at an equilibrium "
           "instant runs on"),
    Mutant("tuning-overflow", "lipschitz.py",
           "if rho0 == math.inf:  # hi or lo * hi overflowed",
           "if False:",
           ("tests/test_lipschitz.py::TestRadialDecomposition::"
            "test_tuning_fails_where_the_growing_bracket_overflows",
            "tests/test_lipschitz.py::TestRadialDecomposition::"
            "test_tuning_ends_where_the_midpoint_overflows"),
           "a tuning whose bracket overflows reports rho0 = inf as converged"),
]


def apply(mutant, src_root):
    """Replace the mutant's old text in its file under ``src_root``; raises
    ValueError unless the old text occurs exactly once."""
    path = os.path.join(src_root, "randerslab", mutant.file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in "
                         f"{mutant.file}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run(mutant):
    """True when at least one of the mutant's tests fails on the mutated
    copy of ``src/``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "src")
        shutil.copytree(SRC, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=copy)
        # pyproject.toml puts the checkout's src first on sys.path; the
        # override puts the copy there instead
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "-o", f"pythonpath={copy}", *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    # 1: tests failed; any other code (no tests collected, usage error,
    # interruption) is not a kill
    return proc.returncode == 1


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    rows = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    for mutant in rows:
        t0 = time.monotonic()
        try:
            killed = run(mutant)
        except ValueError as exc:
            print(f"missing   {exc}")
            failures += 1
            continue
        verdict = "killed  " if killed else "SURVIVED"
        print(f"{verdict}  {mutant.name:22s} {time.monotonic() - t0:6.1f} s  "
              f"{mutant.reason}")
        failures += not killed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
