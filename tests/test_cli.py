import copy
import hashlib
import importlib
import inspect
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randerslab import cli, lipschitz
from randerslab import observables as obs
from randerslab.runio import (NumericError, atomic_write_csv, atomic_write_text,
                              config_hash, fmt_float)

EXAMPLE_CONFIGS = sorted(
    (Path(__file__).parent.parent / "scripts" / "configs").glob("*.json"))


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=1))
    return str(path)


def flow_config(**over):
    cfg = {
        "experiment": "flow",
        "seed": 11,
        "parameters": {
            "n_molecules": 2,
            "field": {"family": "tanh", "amplitude": 0.9},
            "period_T": 1.0,
            "dt": 0.05,
            "n_cycles": 2,
            "initial": {"u_scale": 1.0, "p_scale": 1.0},
        },
    }
    cfg.update(over)
    return cfg


def small_configs():
    return {
        "flow": flow_config(),
        "lipschitz": {
            "experiment": "lipschitz", "seed": 5,
            "parameters": {
                "n_molecules": 1,
                "field": {"family": "tanh", "amplitude": 0.9},
                "box_half_width": 1.0,
                "n_pairs": 800,
                "profile": {"rho0": "auto"},
                "flow": {"period_T": 1.0, "dt": 0.05, "n_cycles": 2,
                         "p_scale": 0.5},
            },
        },
        "concentration": {
            "experiment": "concentration", "seed": 7,
            "parameters": {
                "space": {"kind": "sphere", "dimension": 16},
                "function": {"name": "coordinate", "index": 0},
                "rho_grid": list(np.round(np.linspace(0.1, 0.7, 7), 3)),
                "n": 4000,
                "sigma_f": 1.0,
            },
        },
        "sphere": {
            "experiment": "sphere", "seed": 9,
            "parameters": {"sphere_dimension": 64,
                           "epsilon_grid": [0.2, 0.4], "n": 4000},
        },
        "wep": {
            "experiment": "wep", "seed": 13,
            "parameters": {
                "n_list": [100], "n_trials": 2,
                "field": {"family": "tanh", "amplitude": 0.9},
                "preparation": {"mean": 0.0, "scale": 1.0},
                "period_T": 1.0, "dt": 0.1, "n_cycles": 2,
                "rho_grid": [0.5, 1.0, 2.0, 4.0],
                "n_reference": 2000,
            },
        },
        "gravity": {
            "experiment": "gravity", "seed": 1,
            "parameters": {"cases": "default", "both_conventions": True},
        },
    }


class TestValidate:
    def test_minimal_flow_config_passes(self):
        assert cli.validate_config(flow_config()) == []

    def test_dt_not_dividing_period_names_both_fields(self):
        # 1e-310 makes period_T / dt overflow to infinity
        for dt in (0.3, 1e-310):
            cfg = flow_config()
            cfg["parameters"]["dt"] = dt
            violations = cli.validate_config(cfg)
            assert any("dt" in v and "period_T" in v for v in violations)

    def test_negative_n_rejected(self):
        cfg = small_configs()["wep"]
        cfg["parameters"]["n_list"] = [-5]
        violations = cli.validate_config(cfg)
        assert any("n_list" in v for v in violations)

    def test_unknown_key_rejected(self):
        cfg = flow_config()
        cfg["parameters"]["typo_key"] = 1
        violations = cli.validate_config(cfg)
        assert any("typo_key" in v and "unknown key" in v for v in violations)

    def test_missing_seed_rejected(self):
        cfg = flow_config()
        del cfg["seed"]
        assert any("seed" in v for v in cli.validate_config(cfg))

    @pytest.mark.parametrize("path", EXAMPLE_CONFIGS, ids=lambda p: p.name)
    def test_shipped_example_config_validates(self, path):
        assert cli.validate_config(json.loads(path.read_text())) == []

    def test_example_configs_found(self):
        assert len(EXAMPLE_CONFIGS) == 6

    def test_defaults_fill_a_copy(self):
        cfg = flow_config()
        before = copy.deepcopy(cfg)
        filled, violations = cli._walk_config(cfg)
        assert violations == [] and cfg == before
        assert filled["parameters"]["store_stride"] == 1

    def test_validate_subcommand_exit_codes(self, tmp_path):
        good = write_config(tmp_path, flow_config(), "good.json")
        assert cli.main(["validate", "--config", good]) == 0
        bad_cfg = flow_config()
        bad_cfg["parameters"]["dt"] = 0.3
        bad = write_config(tmp_path, bad_cfg, "bad.json")
        assert cli.main(["validate", "--config", bad]) == 2

    def test_trajectory_bound_counts_stored_rows(self, tmp_path, capsys):
        # 8 x 10^6 steps of a 2-molecule flow store 2.05 GB at store_stride
        # 1 and 0.2 GB at store_stride 10; validate runs no march
        cfg = flow_config()
        cfg["parameters"]["period_T"] = 100000
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", "--config", path]) == 2
        assert "stored trajectory exceeds" in capsys.readouterr().out
        cfg["parameters"]["store_stride"] = 10
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", "--config", path]) == 0


    @pytest.mark.parametrize("workers, code", [(8, 2), (1, 0)])
    def test_wep_budget_counts_the_trials_in_flight(self, tmp_path, capsys,
                                                    monkeypatch, workers,
                                                    code):
        # one trial at N = 2^24 takes exactly MAX_SAMPLE_BYTES at 8 bytes
        # per coordinate; 8 workers would march 8 such trials at once
        monkeypatch.setattr(obs, "WORKERS", workers)
        cfg = small_configs()["wep"]
        cfg["parameters"].update(n_list=[2, 2**24], n_trials=8)
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", "--config", path]) == code
        out = capsys.readouterr().out
        if code:
            assert "violation: parameters.n_list:" in out
        else:
            assert out == "config ok\n"


class TestRunners:
    def test_flow_outputs(self, tmp_path):
        cfg = write_config(tmp_path, flow_config())
        out = tmp_path / "out"
        assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "snapshots.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "flow"
        assert manifest["summary"]["n_snapshots"] == 2

    def test_flow_summary_describes_the_full_march(self, tmp_path):
        # store_stride 3 does not divide the 80 steps: the last stored row
        # is step 78, while n_steps and final_H are those of step 80
        cfg_dict = flow_config()
        cfg_dict["parameters"]["store_stride"] = 3
        out = tmp_path / "out"
        assert cli.main(["flow", "--config", write_config(tmp_path, cfg_dict),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["n_steps"] == 80
        assert summary["final_H"] == -1.8731782335505833
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [
            k * 0.05 for k in range(0, 81, 3)]

    def test_flow_memory_does_not_grow_with_the_row_count(self, tmp_path):
        # every step is a row: 4 cycles write 4 times the rows of 1, and a
        # march that held them peaks more than 3 times as high
        def peak(n_cycles):
            cfg = flow_config()
            cfg["parameters"].update(n_molecules=8, dt=0.005,
                                     n_cycles=n_cycles, store_stride=1)
            path = write_config(tmp_path, cfg, f"flow{n_cycles}.json")
            tracemalloc.start()
            try:
                assert cli.main(["flow", "--config", path, "--out",
                                 str(tmp_path / f"out{n_cycles}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations of the imported modules
        assert peak(4) < 1.1 * peak(1)

    def test_flow_reports_invariant_drift(self, tmp_path):
        # G = beta(u)·p is conserved by the flow, so its drift measures the
        # march: near roundoff on the example config, orders of magnitude
        # larger at a step 50 times as long
        example = Path(__file__).parent.parent / "scripts/configs/flow.json"
        cfg = json.loads(example.read_text())
        dt0, drift = cfg["parameters"]["dt"], {}
        for dt in (dt0, 0.25):
            cfg["parameters"]["dt"] = dt
            out = tmp_path / f"out{dt}"
            assert cli.main(["flow", "--config", write_config(tmp_path, cfg),
                             "--out", str(out)]) == 0
            summary = json.loads((out / "manifest.json").read_text())["summary"]
            drift[dt] = summary["max_invariant_drift"]
        assert drift[dt0] <= 1e-9
        assert drift[0.25] >= 100 * drift[dt0]

    def test_lipschitz_reports_invariant_drift(self, tmp_path):
        # the same drift over the lipschitz run's flow, null without a flow
        example = Path(__file__).parent.parent / "scripts/configs/lipschitz.json"
        small = small_configs()["lipschitz"]
        small["parameters"]["flow"] = None
        drift, margin = {}, {}
        for name, cfg in (("example", json.loads(example.read_text())),
                          ("no-flow", small)):
            out = tmp_path / name
            assert cli.main(["lipschitz", "--config",
                             write_config(tmp_path, cfg, f"{name}.json"),
                             "--out", str(out)]) == 0
            summary = json.loads((out / "manifest.json").read_text())["summary"]
            drift[name] = summary["max_invariant_drift"]
            margin[name] = summary["randers_margin"]
        assert 0.0 <= drift["example"] <= 1e-9
        assert drift["no-flow"] is None
        # the example's tanh field has amplitude 0.9
        assert 0.1 <= margin["example"] < 1.0
        assert margin["no-flow"] is None

    def test_wep_row_accounting(self, tmp_path):
        cfg_dict = small_configs()["wep"]
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert cli.main(["wep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "wep_trajectories.csv").read_text().splitlines()
        n_tau = cfg_dict["parameters"]["n_cycles"] + 1
        assert len(rows) - 1 == 2 * n_tau  # trials x tau grid
        assert rows[0].startswith("N,trial,tau,X_A_mu0")

    def test_gravity_outputs(self, tmp_path):
        cfg = write_config(tmp_path, small_configs()["gravity"])
        out = tmp_path / "out"
        assert cli.main(["gravity", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert (out / "constants.json").exists()

    def test_subcommand_must_match_config(self, tmp_path):
        cfg = write_config(tmp_path, flow_config())
        assert cli.main(["gravity", "--config", cfg, "--out",
                         str(tmp_path / "o")]) == 2

    def test_missing_config_is_io_failure(self, tmp_path):
        assert cli.main(["flow", "--config",
                         str(tmp_path / "absent.json")]) == 4

    def test_fit_unavailable_is_numeric_failure(self, tmp_path):
        cfg_dict = small_configs()["concentration"]
        # grid far beyond any deviation: zero exceedances everywhere
        cfg_dict["parameters"]["rho_grid"] = [50.0, 60.0, 70.0]
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert cli.main(["concentration", "--config", cfg,
                         "--out", str(out)]) == 3
        # outputs were still written for inspection; no manifest
        assert (out / "profile.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_manifest_hashes_the_config_as_given(self, tmp_path):
        cfg = write_config(tmp_path, flow_config())
        out = tmp_path / "out"
        assert cli.main(["flow", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(flow_config())
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count())
        # platform.platform()'s fields but the processor, whose lookup
        # runs a subprocess
        u, libc = os.uname(), "".join(platform.libc_ver())
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": "-".join([u.sysname, u.release, u.machine]
                                 + (["with", libc] if libc else [])),
            "usable_cores": cores}

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path, flow_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["flow", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["flow", "--config", cfg, "--out", str(out2),
                         "--seed", "999"]) == 0
        assert ((out1 / "trajectory.csv").read_bytes()
                != (out2 / "trajectory.csv").read_bytes())


# Binds perfbench/tracing.install in a fresh interpreter, runs each
# (name, config, out) job and prints the recorded span names and counts.
TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from randerslab import cli
for name, cfg, out in json.loads(sys.argv[2]):
    assert cli.main([name, "--config", cfg, "--out", out]) == 0, name
print(json.dumps({"spans": sorted({s[0] for s in tracer.spans}),
                  "counts": tracer.counts}))
"""


def test_benchmark_tracing_keeps_outputs_and_records_spans(tmp_path):
    """The benchmark's tracing hooks bind names, argument names and fields
    of the package; a traced run must still find them all and write the
    same bytes as an untraced one."""
    root = Path(__file__).parent.parent
    jobs, untraced = [], []
    for name in ("wep", "flow", "concentration"):
        cfg = write_config(tmp_path, small_configs()[name], f"{name}.json")
        jobs.append((name, cfg, str(tmp_path / "traced" / name)))
        untraced.append(tmp_path / "plain" / name)
        assert cli.main([name, "--config", cfg, "--out",
                         str(untraced[-1])]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parent.parent),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "perfbench"),
         json.dumps(jobs)], env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    for span in ("observables.evolve_coordinates", "dynamics.run_cycles",
                 "concentration.tail_profile_from_deviations"):
        assert span in report["spans"]
    assert report["counts"]["geometry.drift.calls"] > 0
    assert report["counts"]["cli.ops_failed"] == 0
    for (_, _, traced), plain in zip(jobs, untraced):
        files = sorted(f for f in os.listdir(plain) if f != "manifest.json")
        assert files == sorted(f for f in os.listdir(traced)
                               if f != "manifest.json")
        for fname in files:
            assert (Path(traced, fname).read_bytes()
                    == (plain / fname).read_bytes()), fname


def gravity_case(**over):
    case = {"name": "probe", "m": 1.0, "r2": 1.0, "lambda": 2.0}
    case.update(over)
    return {"cases": [case]}


# One-key changes of the small configs that used to end in a traceback, run
# with a wrong meaning or run away: experiment, parameter overrides, and the
# key path the violation names (exit 2), or None for a numeric failure
# (exit 3).
PROBES = [
    pytest.param("flow", {"initial": 5}, "parameters.initial", id="initial"),
    # a removed key is unknown
    pytest.param("flow", {"raw_ode": "false"}, "parameters.raw_ode",
                 id="raw_ode"),
    pytest.param("sphere", {"method": "cap_exact"}, "parameters.method",
                 id="sphere-method"),
    # the linear family broke its own bound |beta_i| < 1 along the flow
    pytest.param("flow", {"field": {"family": "linear"}},
                 "parameters.field.family", id="flow-linear-field"),
    pytest.param("lipschitz", {"field": {"family": "linear"}},
                 "parameters.field.family", id="lipschitz-linear-field"),
    pytest.param("lipschitz", {"metric": {"kind": "bogus"}},
                 "parameters.metric.kind", id="metric-kind"),
    pytest.param("lipschitz", {"box_half_width": float("inf")},
                 "parameters.box_half_width", id="box_half_width"),
    # a removed key is unknown, also with the one value it took
    pytest.param("lipschitz", {"profile": {"family": "inverse_linear",
                                           "rho0": "auto"}},
                 "parameters.profile.family", id="profile-family"),
    pytest.param("concentration", {"function": {"name": "coordinate",
                                                "index": 1000}},
                 "parameters.function.index", id="function-index"),
    pytest.param("concentration", {"space": {"kind": "product_uniform",
                                             "dimension": 16, "bounds": [1]}},
                 "parameters.space.bounds", id="space-bounds"),
    pytest.param("wep", {"preparation": {"mean": ["a"] * 8}},
                 "parameters.preparation.mean[0]", id="preparation-mean"),
    # one trial has sigma_x = 0: every d / sigma_x divides by zero
    pytest.param("wep", {"n_trials": 1, "n_list": [10, 20, 40], "dt": 0.25},
                 "parameters.n_trials", id="wep-one-trial"),
    # the monotonicity count reads the sizes in list order, and a repeated
    # size was marched and written twice
    pytest.param("wep", {"n_list": [1024, 256, 64, 16]}, "parameters.n_list",
                 id="wep-n_list-descending"),
    pytest.param("wep", {"n_list": [16, 16, 64]}, "parameters.n_list",
                 id="wep-n_list-repeated"),
    pytest.param("gravity", {"both_conventions": "no"},
                 "parameters.both_conventions", id="both_conventions"),
    pytest.param("gravity", gravity_case(density_convention="zzz"),
                 "parameters.cases[0].density_convention",
                 id="density_convention"),
    # singular cases: r1 = r2 at lambda = 1, whatever the masses; r1**2
    # underflowing to zero; lambda**3 overflowing
    pytest.param("gravity", gravity_case(m=0, **{"lambda": 1.0}), None,
                 id="m-0-equal-radii"),
    pytest.param("gravity", gravity_case(M_mass=0, **{"lambda": 1.0}), None,
                 id="M_mass-0-equal-radii"),
    pytest.param("gravity", gravity_case(r2=1e-300), None, id="r2-underflow"),
    pytest.param("gravity", gravity_case(**{"lambda": 1e300}), None,
                 id="lambda-overflow"),
    # G m M overflows: alpha_oracle is inf - inf = NaN, alpha_formula inf
    pytest.param("gravity", gravity_case(m=1e300), None, id="m-1e300"),
    # a lone surrogate cannot be written to sweep.csv as UTF-8
    pytest.param("gravity", gravity_case(name="\ud800"),
                 "parameters.cases[0].name", id="name-lone-surrogate"),
    # r1 = lambda * r2 underflows to zero
    pytest.param("gravity", gravity_case(r2=1e-300, **{"lambda": 1e-300}),
                 None, id="r1-underflow"),
    # marches beyond cli.MAX_RK4_STEPS, and a stored flow trajectory of
    # 2 GiB within that step bound
    pytest.param("flow", {"period_T": 1e300}, "parameters.dt",
                 id="period_T-1e300"),
    pytest.param("flow", {"period_T": 1000000}, "parameters.dt",
                 id="period_T-1e6"),
    pytest.param("wep", {"dt": 1e-300}, "parameters.dt", id="wep-dt-1e-300"),
    pytest.param("flow", {"period_T": 100000}, "parameters.dt",
                 id="trajectory-bytes"),
    # difference quotients overflow to a non-finite estimate
    pytest.param("lipschitz", {"box_half_width": 1e300, "flow": None}, None,
                 id="box_half_width-1e300"),
    # high - low overflows: samples are infinite, where numpy's uniform
    # raised OverflowError
    pytest.param("concentration", {"space": {
        "kind": "product_uniform", "dimension": 16,
        "bounds": [-1e308, 1e308]}}, None, id="bounds-width-overflow"),
    # sample arrays of 364 TiB to 11.4 PiB beyond cli.MAX_SAMPLE_BYTES
    pytest.param("concentration", {"n": 10**14}, "parameters.n",
                 id="concentration-n-1e14"),
    pytest.param("sphere", {"n": 10**14}, "parameters.n", id="sphere-n-1e14"),
    pytest.param("wep", {"n_reference": 10**14}, "parameters.n_reference",
                 id="n_reference-1e14"),
    pytest.param("lipschitz", {"n_pairs": 10**14}, "parameters.n_pairs",
                 id="n_pairs-1e14"),
    # one trial's draw of 6.4 TB, and 38.4 TB of observables
    pytest.param("wep", {"n_list": [2, 10**11]}, "parameters.n_list",
                 id="wep-n_list-1e11"),
    pytest.param("wep", {"n_trials": 10**11}, "parameters.n_trials",
                 id="wep-n_trials-1e11"),
    # the largest double times a standard normal of modulus above 1
    # overflows in the initial point of the flow march
    pytest.param("flow", {"initial": {"u_scale": sys.float_info.max}}, None,
                 id="flow-u_scale-max"),
    pytest.param("lipschitz", {"flow": {
        "period_T": 1.0, "dt": 0.05, "n_cycles": 2,
        "u_scale": sys.float_info.max}}, None, id="lipschitz-flow-u_scale-max"),
    # at mean 1e306 the unit normals are absorbed, so the trial spread
    # sigma_x is 0; at 1e308 the centers of mass overflow to inf and NaN
    pytest.param("wep", {"preparation": {"mean": 1e306}}, None,
                 id="wep-mean-1e306"),
    pytest.param("wep", {"preparation": {"mean": 1e308}}, None,
                 id="wep-mean-1e308"),
]


@pytest.mark.parametrize("name, over, key", PROBES)
def test_bad_config_exits_with_documented_code(tmp_path, capsys, name, over,
                                               key):
    cfg = small_configs()[name]
    cfg["parameters"].update(over)
    path = write_config(tmp_path, cfg)
    code = cli.main([name, "--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if key is None:
        assert code == 3 and "numeric failure" in err
    else:
        assert code == 2 and f"violation: {key}:" in err


OVERFLOWS = ("flow-u_scale-max", "lipschitz-flow-u_scale-max",
             "wep-mean-1e306", "wep-mean-1e308", "box_half_width-1e300")


@pytest.mark.parametrize("name, over, key",
                         [p for p in PROBES if p.id in OVERFLOWS])
def test_overflow_prints_only_its_numeric_failure(tmp_path, capsys, name,
                                                  over, key):
    """An overflow that a finite check reports raises no RuntimeWarning,
    in the calling thread or in a WEP worker's (the filters are global),
    and the run prints one line on stderr."""
    cfg = small_configs()[name]
    cfg["parameters"].update(over)
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([name, "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


# Runs each argv through cli.main in a fresh interpreter and prints the exit
# codes, the randerslab modules loaded and whether subprocess was imported.
IMPORTS_RUN = """
import json, sys
from randerslab import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(
    m for m in sys.modules if m.startswith("randerslab.")),
    "subprocess": "subprocess" in sys.modules}))
"""


@pytest.mark.parametrize("name, extra", [
    ("flow", []), ("wep", ["concentration", "observables"])])
def test_subcommand_imports_only_its_modules(tmp_path, name, extra):
    cfg = write_config(tmp_path, small_configs()[name])
    argvs = [["validate", "--config", cfg],
             [name, "--config", cfg, "--out", str(tmp_path / "out")]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parent.parent),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", IMPORTS_RUN,
                           json.dumps(argvs)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["modules"] == sorted(
        f"randerslab.{m}" for m in ["cli", "dynamics", "geometry", "runio",
                                    *extra])
    # the manifest spawns no process
    assert not report["subprocess"]


LIBRARY_MODULES = sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py")
                         if not p.stem.startswith("__"))


def test_every_library_error_is_a_numeric_error():
    errors = {cls for name in LIBRARY_MODULES
              for _, cls in inspect.getmembers(
                  importlib.import_module(f"randerslab.{name}"),
                  inspect.isclass)
              if issubclass(cls, Exception) and cls.__module__.startswith(
                  "randerslab.") and cls is not NumericError}
    assert {cls.__name__ for cls in errors} >= {
        "NumericRunError", "DynamicsError", "ConcentrationError",
        "LipschitzError", "GravityError"}
    assert all(issubclass(cls, NumericError) for cls in errors)


@pytest.mark.parametrize("module, base", [
    ("cli", "NumericRunError"), ("dynamics", "DynamicsError"),
    ("concentration", "ConcentrationError"), ("lipschitz", "LipschitzError"),
    ("gravity_scales", "GravityError")])
def test_bare_error_subclass_exits_3(tmp_path, capsys, monkeypatch, module,
                                     base):
    class Bare(getattr(importlib.import_module(f"randerslab.{module}"), base)):
        pass

    def runner(params, seed, outdir):
        raise Bare("probe")

    monkeypatch.setitem(cli.RUNNERS, "flow", runner)
    path = write_config(tmp_path, flow_config())
    assert cli.main(["flow", "--config", path, "--out",
                     str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "numeric failure: probe\n"


class TestDeterminism:
    @pytest.mark.parametrize("name", ["flow", "lipschitz", "concentration",
                                      "sphere", "wep", "gravity"])
    def test_rerun_is_byte_identical(self, tmp_path, name):
        cfg = write_config(tmp_path, small_configs()[name])
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main([name, "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main([name, "--config", cfg, "--out", str(out2)]) == 0
        files = sorted(os.listdir(out1))
        assert files == sorted(os.listdir(out2))
        for fname in files:
            if fname == "manifest.json":
                continue  # carries a timestamp by design
            assert ((out1 / fname).read_bytes()
                    == (out2 / fname).read_bytes()), fname


# sha256 of every CSV/JSON output of the small configs except manifest.json.
# A change to any of these values changes what the CLI writes for the same
# seed; it must be deliberate and explained in CHANGES.md.
PINNED_DIGESTS = {
    "flow": {
        "snapshots.csv": "a43987fae3d439f62f5245e843d477e7"
                         "f96a822e93228b1a53e6e29680c48e4d",
        "trajectory.csv": "9e1255505a48fbe9870f3b6e030c34cd"
                          "8c2340dc1bb9990e4dd9ebe2de002d05",
    },
    "lipschitz": {
        "decomposition_report.json": "f82395316d22562e34cefc63390da1ee"
                                     "8fa44cd920727f975427646b8dc96bde",
    },
    "concentration": {
        "fit_summary.json": "5e6d3372a8f264e0b3c93cf9c5afdbdc"
                            "6edb3a255d853bf468e2afd417c52e96",
        "profile.csv": "e590a1cf596ff699d147fde729dbd548"
                       "a247a16386f50b6393f18646ecc5fa35",
    },
    "sphere": {
        "isoperimetric.csv": "4d3322d378c373fb4d2a032ee00a5d03"
                             "93e8699fccba860168d153becf4e9542",
    },
    "wep": {
        "wep_summary.json": "f214a19482fed0df3066963b87763b1a"
                            "88cc91635067cd3d406edf222fef1cd4",
        "wep_trajectories.csv": "f1b600a208daba7ce549746970f74293"
                                "a6d0e330c2c8596c5075a996cbe532cd",
    },
    "gravity": {
        "constants.json": "72b99b5dec924a8750f6d9e46c31b6ea"
                          "8df686a16c6988fdefbb7eb09c8b23da",
        "sweep.csv": "4b5c2780c3efbf65c1c1aa77f23b978b"
                     "4857e3951f3e80b904c3f9dbf0a48a2c",
    },
}


@pytest.mark.parametrize("name", sorted(small_configs()))
def test_outputs_match_pinned_digests(tmp_path, name):
    cfg = write_config(tmp_path, small_configs()[name])
    out = tmp_path / "out"
    assert cli.main([name, "--config", cfg, "--out", str(out)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.iterdir())
               if f.suffix in (".csv", ".json") and f.name != "manifest.json"}
    assert digests == PINNED_DIGESTS[name]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_wep_digests_do_not_depend_on_worker_count(tmp_path, monkeypatch,
                                                   workers):
    # the guide and the trial chunks run as tasks of a pool of one, two or
    # three workers
    monkeypatch.setattr(obs, "WORKERS", workers)
    cfg = write_config(tmp_path, small_configs()["wep"])
    out = tmp_path / "out"
    assert cli.main(["wep", "--config", cfg, "--out", str(out)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.iterdir())
               if f.suffix in (".csv", ".json") and f.name != "manifest.json"}
    assert digests == PINNED_DIGESTS["wep"]


class TestAtomicity:
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        target = tmp_path / "data.csv"

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            atomic_write_text(str(target), "half-written")
        monkeypatch.undo()
        assert not target.exists()
        assert os.listdir(tmp_path) == []

    def test_failing_rows_leave_no_file(self, tmp_path):
        def rows():
            yield [1.0]
            yield [2.0]
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            atomic_write_csv(str(tmp_path / "data.csv"), ["x"], rows())
        assert os.listdir(tmp_path) == []

    def test_csv_is_written_row_by_row(self, tmp_path):
        # while a row is joined its cells are separate str objects, about
        # 4 rows' worth of text, so the bound allows 8 rows; a writer that
        # holds the whole file peaks at thousands of rows
        data = np.random.default_rng(0).standard_normal((2000, 500))
        header = [f"c{i}" for i in range(500)]
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            atomic_write_csv(str(path), header, iter(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_bytes = path.stat().st_size / 2001
        assert peak < 8 * row_bytes

    def test_csv_bytes_of_mixed_cells(self, tmp_path):
        rows = [["a", 1, 0.1, np.float64(2.5)],
                ["b", -3, 1e-300, np.float64(1 / 3)],
                ["", 0, -0.0, np.float64(2.5000000000000004)]]
        path = tmp_path / "m.csv"
        atomic_write_csv(str(path), ["s", "i", "f", "g"], iter(rows))
        assert path.read_bytes() == (b"s,i,f,g\n"
                                     b"a,1,0.1,2.5\n"
                                     b"b,-3,1e-300,0.3333333333333333\n"
                                     b",0,-0.0,2.5000000000000004\n")

    def test_csv_floats_round_trip(self, tmp_path):
        values = [0.1, 1e-300, 123456.789, np.float64(2.5000000000000004)]
        path = tmp_path / "f.csv"
        atomic_write_csv(str(path), ["x"], ([v] for v in values))
        lines = path.read_text().splitlines()[1:]
        for line, v in zip(lines, values):
            assert float(line) == float(v)
        assert fmt_float(0.1) == "0.1"


def _paths(node, path=()):
    """Key paths of every value nested in objects of node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _paths(value, path + (key,))


# object keys are mostly config keys, so that values reach nested tables
CONFIG_KEYS = sorted({p[-1] for cfg in [*small_configs().values(),
                                        *(json.loads(f.read_text())
                                          for f in EXAMPLE_CONFIGS)]
                      for p in _paths(cfg)} | {"value", "scale", "bounds"})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(CONFIG_KEYS)
                                     | st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


@pytest.mark.parametrize("name", [None, *cli.EXPERIMENTS])
@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES, data=st.data())
def test_any_json_value_is_validated_without_raising(tmp_path_factory, name,
                                                     value, data):
    """Any JSON value, as the whole config (name None) or in place of any
    value nested in a small config (its parameters among them), gives a list
    of violation strings and exit code 0 or 2, and leaves the config as it
    was."""
    if name is None:
        cfg = value
    else:
        cfg = small_configs()[name]
        path = data.draw(st.sampled_from(list(_paths(cfg))))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    text = json.dumps(cfg)
    violations = cli.validate_config(cfg)
    assert isinstance(violations, list)
    assert all(isinstance(v, str) for v in violations)
    assert json.dumps(cfg) == text  # defaults go into a copy
    fname = tmp_path_factory.getbasetemp() / "fuzz.json"
    fname.write_text(text)
    assert cli.main(["validate", "--config", str(fname)]) in (0, 2)


FIELDS = st.one_of(
    st.just({"family": "zero"}),
    st.builds(lambda v: {"family": "constant", "value": v},
              st.floats(-0.95, 0.95)),
    st.builds(lambda a: {"family": "tanh", "amplitude": a},
              st.floats(0.05, 0.95)))
# dt = T / k divides the period; the other values do not divide T = 1
TIMING = st.one_of(
    st.builds(lambda T, k: (T, T / k), st.sampled_from([0.5, 1.0, 2.0]),
              st.integers(1, 6)),
    st.tuples(st.just(1.0), st.sampled_from([0.3, 0.35, 0.7, 1.5])))


@settings(max_examples=60, deadline=None)
@given(n_list=st.lists(st.integers(2, 64), min_size=1, max_size=3,
                      unique=True).map(sorted),
       n_trials=st.integers(1, 3), n_cycles=st.integers(1, 3),
       field=FIELDS, timing=TIMING,
       mean=st.floats(-2.0, 2.0), scale=st.floats(0.1, 3.0),
       n_reference=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
def test_legal_wep_configs_run_to_a_documented_exit(
        tmp_path_factory, n_list, n_trials, n_cycles, field, timing, mean,
        scale, n_reference, seed):
    """Every legal small wep config runs through main to exit 0, 2 or 3;
    an uncaught exception would fail the test with its traceback."""
    period_T, dt = timing
    cfg = {"experiment": "wep", "seed": seed, "parameters": {
        "n_list": n_list, "n_trials": n_trials, "field": field,
        "preparation": {"mean": mean, "scale": scale},
        "period_T": period_T, "dt": dt, "n_cycles": n_cycles,
        "rho_grid": [0.5, 1.0, 2.0, 4.0], "n_reference": n_reference}}
    tmp = tmp_path_factory.mktemp("wep-fuzz")
    path = write_config(tmp, cfg)
    code = cli.main(["wep", "--config", path, "--out", str(tmp / "out")])
    assert code in (0, 2, 3)
    assert (tmp / "out" / "manifest.json").exists() == (code == 0)


LIPSCHITZ_METRICS = st.one_of(
    st.just({"kind": "euclidean"}),
    st.builds(lambda u, p: {"kind": "weighted", "u_scale": u, "p_scale": p},
              st.floats(0.1, 10.0), st.floats(0.1, 10.0)))
# dt = T / k divides the period; 0.3 does not divide T = 1
LIPSCHITZ_FLOWS = st.one_of(
    st.none(),
    st.builds(lambda k, n, u, p: {"period_T": 1.0, "dt": 1.0 / k,
                                  "n_cycles": n, "u_scale": u, "p_scale": p},
              st.integers(2, 20), st.integers(1, 2), st.floats(0.0, 2.0),
              st.floats(0.0, 2.0)),
    st.just({"period_T": 1.0, "dt": 0.3, "n_cycles": 1}))


@settings(max_examples=60, deadline=None)
@given(field=FIELDS, metric=LIPSCHITZ_METRICS,
       half_width=st.floats(0.05, 10.0),
       n_pairs=st.integers(1, 200),
       rho0=st.one_of(st.just("auto"), st.floats(0.01, 100.0)),
       flow=LIPSCHITZ_FLOWS, seed=st.integers(0, 2**32 - 1))
def test_legal_lipschitz_configs_run_to_a_documented_exit(
        tmp_path_factory, field, metric, half_width, n_pairs, rho0, flow,
        seed):
    """Every legal small lipschitz config runs through main to exit 0, 2 or
    3, and a run that reaches the decomposition writes its report, also
    when the tuning fails."""
    cfg = {"experiment": "lipschitz", "seed": seed, "parameters": {
        "n_molecules": 1, "field": field, "box_half_width": half_width,
        "metric": metric, "n_pairs": n_pairs,
        "profile": {"rho0": rho0}, "flow": flow}}
    tmp = tmp_path_factory.mktemp("lipschitz-fuzz")
    path = write_config(tmp, cfg)
    out = tmp / "out"
    with mock.patch.object(lipschitz, "radial_decomposition",
                           wraps=lipschitz.radial_decomposition) as spy:
        code = cli.main(["lipschitz", "--config", path, "--out", str(out)])
    assert code in (0, 2, 3)
    assert (out / "manifest.json").exists() == (code == 0)
    if spy.called:
        assert (out / "decomposition_report.json").exists()


SPACES = st.one_of(
    st.builds(lambda d: {"kind": "sphere", "dimension": d}, st.integers(1, 16)),
    st.builds(lambda d, s: {"kind": "gaussian", "dimension": d, "sigma": s},
              st.integers(1, 16), st.floats(0.1, 10.0)),
    st.builds(lambda d, lo, w: {"kind": "product_uniform", "dimension": d,
                                "bounds": [lo, lo + w]},
              st.integers(1, 16), st.floats(-5.0, 5.0), st.floats(0.01, 10.0)))
GRIDS = st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6,
                 unique=True).map(sorted)


def run_to_a_documented_exit(tmp_path_factory, cfg):
    """Run cfg through main: exit 0, 2 or 3 (an uncaught exception fails
    the test with its traceback), and a manifest exactly on exit 0."""
    tmp = tmp_path_factory.mktemp(f"{cfg['experiment']}-fuzz")
    path = write_config(tmp, cfg)
    code = cli.main([cfg["experiment"], "--config", path, "--out",
                     str(tmp / "out")])
    assert code in (0, 2, 3)
    assert (tmp / "out" / "manifest.json").exists() == (code == 0)


@settings(max_examples=60, deadline=None)
@given(space=SPACES,
       function=st.builds(lambda name, i: {"name": name, "index": i},
                          st.sampled_from(["coordinate", "norm",
                                           "coordinate_mean"]),
                          st.integers(0, 4)),
       rho_grid=GRIDS, n=st.integers(100, 2000),
       sigma_f=st.floats(0.05, 2.0),
       rho_p=st.one_of(st.none(), st.floats(0.01, 10.0)),
       seed=st.integers(0, 2**32 - 1))
def test_legal_concentration_configs_run_to_a_documented_exit(
        tmp_path_factory, space, function, rho_grid, n, sigma_f, rho_p, seed):
    run_to_a_documented_exit(tmp_path_factory, {
        "experiment": "concentration", "seed": seed, "parameters": {
            "space": space, "function": function, "rho_grid": rho_grid,
            "n": n, "sigma_f": sigma_f, "rho_p": rho_p}})


@settings(max_examples=60, deadline=None)
@given(dimension=st.integers(2, 16), epsilon_grid=GRIDS,
       n=st.integers(100, 2000), seed=st.integers(0, 2**32 - 1))
def test_legal_sphere_configs_run_to_a_documented_exit(
        tmp_path_factory, dimension, epsilon_grid, n, seed):
    run_to_a_documented_exit(tmp_path_factory, {
        "experiment": "sphere", "seed": seed, "parameters": {
            "sphere_dimension": dimension, "epsilon_grid": epsilon_grid,
            "n": n}})


# one legal spec per CLI field family, at the edge of its range
FAMILY_SPECS = {"zero": {}, "constant": {"value": -0.99},
                "tanh": {"amplitude": 0.99}}


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_every_cli_field_is_componentwise_and_bounded(family):
    """Every family the CLI builds acts coordinate by coordinate, has an
    analytic vjp, and keeps |beta_i| within its bound below one.  Each
    family is constant or monotone in each coordinate, so the sup of
    |beta_i| is its value at u_i = +-inf."""
    assert set(FAMILY_SPECS) == set(cli.FIELD)
    spec = {"family": family, **FAMILY_SPECS[family]}
    cfg = flow_config()
    cfg["parameters"]["field"] = spec
    assert cli.validate_config(cfg) == []
    field = cli.build_field(spec, 16, seed=0)
    assert field.scalar_map is not None and field.vjp is not None
    ends = np.tile([np.inf, -np.inf], 8)
    sup = float(np.max(np.abs(field.beta(ends))))
    assert sup <= field.beta_bound < 1.0
    grid = np.linspace(-50.0, 50.0, 16 * 1001).reshape(-1, 16)
    assert np.abs(field.beta(grid)).max() <= sup
    rng = np.random.default_rng(2)
    u, p = rng.standard_normal(16), rng.standard_normal(16)
    assert np.allclose(field.vjp(u, p), field.jacobian_at(u).T @ p, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(n_molecules=st.integers(1, 4), field=FIELDS, timing=TIMING,
       n_cycles=st.integers(1, 3), store_stride=st.integers(1, 20),
       u_scale=st.floats(-3.0, 3.0), p_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_legal_flow_configs_run_to_a_documented_exit(
        tmp_path_factory, n_molecules, field, timing, n_cycles, store_stride,
        u_scale, p_scale, seed):
    period_T, dt = timing
    run_to_a_documented_exit(tmp_path_factory, {
        "experiment": "flow", "seed": seed, "parameters": {
            "n_molecules": n_molecules, "field": field, "period_T": period_T,
            "dt": dt, "n_cycles": n_cycles,
            "initial": {"u_scale": u_scale, "p_scale": p_scale},
            "store_stride": store_stride}})


MASSES = st.one_of(st.just(0.0), st.floats(1e-40, 1e300))
GRAVITY_CASES = st.builds(
    lambda name, m, big_m, r2, lam, conv: {
        "name": name, "m": m, "M_mass": big_m, "r2": r2, "lambda": lam,
        "density_convention": conv},
    st.text(max_size=8), MASSES, st.one_of(st.none(), MASSES),
    st.floats(1e-300, 1e300), st.one_of(st.just(1.0), st.floats(1e-300, 1e300)),
    st.sampled_from(["r1", "r2"]))


@settings(max_examples=60, deadline=None)
@given(cases=st.one_of(st.just("default"),
                       st.lists(GRAVITY_CASES, min_size=1, max_size=3)),
       both_conventions=st.booleans())
def test_legal_gravity_configs_run_to_a_documented_exit(
        tmp_path_factory, cases, both_conventions):
    run_to_a_documented_exit(tmp_path_factory, {
        "experiment": "gravity", "seed": 0, "parameters": {
            "cases": cases, "both_conventions": both_conventions}})
