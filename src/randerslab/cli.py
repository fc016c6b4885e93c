"""Experiment runner: strict JSON configs, seeded runs, atomic outputs.

Subcommands: flow, lipschitz, concentration, sphere, wep, gravity,
validate.  Exit codes: 0 success, 2 validation failure, 3 numeric failure
(blow-up or unavailable fit), 4 I/O failure.  Rerunning a config with the
same seed reproduces every CSV/JSON output byte for byte; only the manifest
timestamp differs.
"""

import argparse
import datetime
import json
import os
import sys

import numpy as np

from . import __version__, concentration as conc, dynamics, gravity_scales as grav
from . import lipschitz as lip, observables as obs
from .geometry import (PhasePoint, constant_field, linear_field, tanh_field,
                       zero_field)
from .runio import atomic_write_json, config_hash, derive_rng

EXPERIMENTS = ("flow", "lipschitz", "concentration", "sphere", "wep", "gravity")


class ValidationFailure(Exception):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(violations))


class NumericRunError(Exception):
    pass


# ---------------------------------------------------------------------------
# config validation


def _check_keys(node: dict, path: str, allowed: set, violations: list) -> None:
    for key in node:
        if key not in allowed:
            violations.append(f"{path}{key}: unknown key")


def _need(node, path, key, types, violations, check=None, required=True):
    if key not in node:
        if required:
            violations.append(f"{path}{key}: missing required field")
        return None
    value = node[key]
    if not isinstance(value, types) or isinstance(value, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)):
        violations.append(f"{path}{key}: expected {types}, got {type(value).__name__}")
        return None
    if check is not None:
        msg = check(value)
        if msg:
            violations.append(f"{path}{key}: {msg}")
            return None
    return value


def _positive(v):
    return None if v > 0 else "must be positive"


def _validate_field(node, path, violations,
                    families=("zero", "constant", "tanh", "linear")):
    if not isinstance(node, dict):
        violations.append(f"{path}: field spec must be an object")
        return
    family = _need(node, path + ".", "family", str, violations,
                   check=lambda v: None if v in families
                   else f"must be one of {families}")
    allowed = {"family"}
    if family == "constant":
        allowed.add("value")
        _need(node, path + ".", "value", (int, float), violations,
              check=lambda v: None if abs(v) < 1 else "|value| must be < 1")
    elif family == "tanh":
        allowed.add("amplitude")
        _need(node, path + ".", "amplitude", (int, float), violations,
              check=lambda v: None if 0 < v < 1 else "amplitude must lie in (0, 1)")
    elif family == "linear":
        allowed.add("scale")
        _need(node, path + ".", "scale", (int, float), violations,
              check=_positive, required=False)
    _check_keys(node, path + ".", allowed, violations)


def _validate_dt_period(node, path, violations):
    dt = _need(node, path, "dt", (int, float), violations, check=_positive)
    period = _need(node, path, "period_T", (int, float), violations, check=_positive)
    if dt and period:
        try:
            dynamics.steps_per_period(period, dt)
        except dynamics.GridAlignmentError:
            violations.append(
                f"{path}dt: dt = {dt} does not divide period_T = {period}")


def _validate_preparation(node, path, violations):
    if not isinstance(node, dict):
        violations.append(f"{path}: preparation must be an object")
        return
    _check_keys(node, path + ".", {"mean", "scale"}, violations)
    mean = node.get("mean", 0.0)
    if not isinstance(mean, (int, float, list)):
        violations.append(f"{path}.mean: expected number or list of 8 numbers")
    elif isinstance(mean, list) and len(mean) != 8:
        violations.append(f"{path}.mean: list must have 8 entries")
    _need(node, path + ".", "scale", (int, float), violations,
          check=_positive, required=False)


def _validate_rho_grid(node, path, violations, key="rho_grid"):
    grid = _need(node, path, key, list, violations)
    if grid is not None:
        arr = [g for g in grid if isinstance(g, (int, float))]
        if len(arr) != len(grid) or len(grid) < 1:
            violations.append(f"{path}{key}: must be a nonempty list of numbers")
        elif any(g <= 0 for g in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
            violations.append(f"{path}{key}: must be ascending and positive")


def validate_config(config: dict) -> list:
    """Full strict schema check; returns a list of violation strings."""
    v = []
    if not isinstance(config, dict):
        return ["config: top level must be an object"]
    _check_keys(config, "", {"experiment", "seed", "output_dir", "parameters"}, v)
    exp = _need(config, "", "experiment", str, v,
                check=lambda s: None if s in EXPERIMENTS else
                f"must be one of {EXPERIMENTS}")
    _need(config, "", "seed", int, v)
    _need(config, "", "output_dir", str, v, required=False)
    params = config.get("parameters")
    if not isinstance(params, dict):
        v.append("parameters: missing required object")
        return v
    p = "parameters."

    if exp == "flow":
        _check_keys(params, p, {"n_molecules", "field", "period_T", "dt",
                                "n_cycles", "initial", "raw_ode",
                                "store_stride"}, v)
        _need(params, p, "n_molecules", int, v, check=_positive)
        _need(params, p, "n_cycles", int, v, check=_positive)
        _validate_dt_period(params, p, v)
        if "field" in params:
            _validate_field(params["field"], p + "field", v)
        else:
            v.append(p + "field: missing required field")
        init = params.get("initial", {})
        if isinstance(init, dict):
            _check_keys(init, p + "initial.", {"u_scale", "p_scale"}, v)
        _need(params, p, "store_stride", int, v, check=_positive, required=False)
    elif exp == "lipschitz":
        _check_keys(params, p, {"n_molecules", "field", "box_half_width",
                                "metric", "n_pairs", "profile", "flow"}, v)
        _need(params, p, "n_molecules", int, v, check=_positive)
        _need(params, p, "box_half_width", (int, float), v, check=_positive)
        _need(params, p, "n_pairs", int, v, check=_positive)
        if "field" in params:
            _validate_field(params["field"], p + "field", v)
        else:
            v.append(p + "field: missing required field")
        prof = params.get("profile")
        if prof is not None:
            if not isinstance(prof, dict):
                v.append(p + "profile: must be an object")
            else:
                _check_keys(prof, p + "profile.", {"family", "rho0"}, v)
                rho0 = prof.get("rho0", "auto")
                if rho0 != "auto" and (not isinstance(rho0, (int, float)) or rho0 <= 0):
                    v.append(p + "profile.rho0: must be 'auto' or a positive number")
        flow = params.get("flow")
        if flow is not None:
            if not isinstance(flow, dict):
                v.append(p + "flow: must be an object")
            else:
                _check_keys(flow, p + "flow.", {"period_T", "dt", "n_cycles",
                                                "p_scale", "u_scale"}, v)
                _validate_dt_period(flow, p + "flow.", v)
                _need(flow, p + "flow.", "n_cycles", int, v, check=_positive)
    elif exp == "concentration":
        _check_keys(params, p, {"space", "function", "rho_grid", "n",
                                "sigma_f", "rho_p"}, v)
        space = params.get("space")
        if not isinstance(space, dict):
            v.append(p + "space: missing required object")
        else:
            _check_keys(space, p + "space.", {"kind", "dimension", "sigma",
                                              "bounds"}, v)
            kind = _need(space, p + "space.", "kind", str, v,
                         check=lambda s: None if s in ("sphere", "gaussian",
                                                       "product_uniform")
                         else "unknown mm-space kind")
            dim = _need(space, p + "space.", "dimension", int, v, check=_positive)
            if kind == "sphere" and dim is not None and dim < 2:
                v.append(p + "space.dimension: sphere dimension must be >= 2")
        fn = params.get("function")
        if not isinstance(fn, dict):
            v.append(p + "function: missing required object")
        else:
            _check_keys(fn, p + "function.", {"name", "index"}, v)
            _need(fn, p + "function.", "name", str, v,
                  check=lambda s: None if s in ("coordinate", "norm",
                                                "coordinate_mean")
                  else "unknown observable")
        _validate_rho_grid(params, p, v)
        _need(params, p, "n", int, v,
              check=lambda n: None if n >= 100 else "need n >= 100")
        _need(params, p, "sigma_f", (int, float), v, check=_positive,
              required=False)
        if "rho_p" in params and params["rho_p"] is not None:
            _need(params, p, "rho_p", (int, float), v, check=_positive)
    elif exp == "sphere":
        _check_keys(params, p, {"sphere_dimension", "epsilon_grid", "n",
                                "method"}, v)
        _need(params, p, "sphere_dimension", int, v,
              check=lambda n: None if n >= 2 else "must be >= 2")
        _validate_rho_grid(params, p, v, key="epsilon_grid")
        _need(params, p, "n", int, v,
              check=lambda n: None if n >= 100 else "need n >= 100")
        _need(params, p, "method", str, v, required=False,
              check=lambda s: None if s in ("cap_exact", "sample_distance")
              else "unknown method")
    elif exp == "wep":
        _check_keys(params, p, {"n_list", "n_trials", "field", "preparation",
                                "period_T", "dt", "n_cycles", "rho_grid",
                                "n_reference"}, v)
        n_list = _need(params, p, "n_list", list, v)
        if n_list is not None:
            if not n_list or any(not isinstance(n, int) or n < 2 for n in n_list):
                v.append(p + "n_list: every N must be an integer >= 2")
        _need(params, p, "n_trials", int, v, check=_positive)
        _need(params, p, "n_cycles", int, v, check=_positive)
        _need(params, p, "n_reference", int, v, check=_positive, required=False)
        _validate_dt_period(params, p, v)
        _validate_rho_grid(params, p, v)
        if "field" in params:
            # ensemble evolution batches trials, which needs a drift acting
            # coordinate by coordinate
            _validate_field(params["field"], p + "field", v,
                            families=("zero", "constant", "tanh"))
        else:
            v.append(p + "field: missing required field")
        if "preparation" in params:
            _validate_preparation(params["preparation"], p + "preparation", v)
        else:
            v.append(p + "preparation: missing required object")
    elif exp == "gravity":
        _check_keys(params, p, {"cases", "both_conventions"}, v)
        cases = params.get("cases", "default")
        if cases != "default":
            if not isinstance(cases, list) or not cases:
                v.append(p + "cases: must be 'default' or a nonempty list")
            else:
                for i, case in enumerate(cases):
                    cp = f"{p}cases[{i}]."
                    if not isinstance(case, dict):
                        v.append(cp[:-1] + ": must be an object")
                        continue
                    _check_keys(case, cp, {"name", "m", "M_mass", "r2",
                                           "lambda", "density_convention"}, v)
                    _need(case, cp, "name", str, v)
                    _need(case, cp, "m", (int, float), v,
                          check=lambda x: None if x >= 0 else "must be >= 0")
                    _need(case, cp, "r2", (int, float), v, check=_positive)
                    _need(case, cp, "lambda", (int, float), v, check=_positive)
    return v


# ---------------------------------------------------------------------------
# builders


def build_field(spec: dict, dim: int, seed: int):
    family = spec["family"]
    if family == "zero":
        return zero_field(dim)
    if family == "constant":
        return constant_field(float(spec["value"]), dim)
    if family == "tanh":
        return tanh_field(dim, float(spec["amplitude"]))
    if family == "linear":
        scale = float(spec.get("scale", 0.3))
        rng = derive_rng(seed, "field-matrix")
        w = rng.standard_normal((dim, dim))
        skew = 0.5 * (w - w.T)
        skew *= scale / max(np.abs(skew).max(), 1e-12)
        return linear_field(-(0.5 * np.eye(dim) + skew))
    raise ValueError(f"unknown field family {family!r}")


def build_preparation(spec: dict, seed: int) -> obs.Preparation:
    mean = spec.get("mean", 0.0)
    scale = float(spec.get("scale", 1.0))
    return obs.Preparation(mean=np.asarray(mean, dtype=float),
                           covariance=scale**2 * np.eye(8), seed=seed)


# ---------------------------------------------------------------------------
# experiment runners; each returns (output file names, summary dict)


def run_flow(params, seed, outdir):
    dim = 8 * params["n_molecules"]
    field = build_field(params["field"], dim, seed)
    schedule = dynamics.sin_squared_schedule(float(params["period_T"]))
    init = params.get("initial", {})
    rng = derive_rng(seed, "flow-initial")
    u0 = float(init.get("u_scale", 1.0)) * rng.standard_normal(dim)
    p0 = float(init.get("p_scale", 1.0)) * rng.standard_normal(dim)
    point = PhasePoint(u=u0, p=p0, n_molecules=params["n_molecules"])
    state = dynamics.make_state(point, schedule)
    traj, snaps = dynamics.run_cycles(
        field, schedule, state, params["n_cycles"], float(params["dt"]),
        raw_ode=bool(params.get("raw_ode", False)))
    stride = int(params.get("store_stride", 1))
    traj.to_csv(os.path.join(outdir, "trajectory.csv"), stride=stride)
    dynamics.snapshots_to_csv(snaps, os.path.join(outdir, "snapshots.csv"))
    summary = {
        "n_steps": int(traj.t.size - 1),
        "n_snapshots": len(snaps),
        "max_abs_snapshot_H": max(abs(s.h_value) for s in snaps),
        "final_H": traj.h[-1],
    }
    return ["trajectory.csv", "snapshots.csv"], summary


def run_lipschitz(params, seed, outdir):
    n_mol = params["n_molecules"]
    dim_u = 8 * n_mol
    field = build_field(params["field"], dim_u, seed)

    def h(z):
        z = np.asarray(z, dtype=float)
        return np.sum(field.beta(z[..., :dim_u]) * z[..., dim_u:], axis=-1)

    metric_spec = params.get("metric", {"kind": "euclidean"})
    metric = lip.BoxMetric(kind=metric_spec.get("kind", "euclidean"),
                           u_scale=float(metric_spec.get("u_scale", 1.0)),
                           p_scale=float(metric_spec.get("p_scale", 1.0)))
    box = lip.CompactBox.cube(2 * dim_u, float(params["box_half_width"]),
                              metric=metric)
    n_pairs = params["n_pairs"]
    est = lip.estimate_lipschitz(h, box, n_pairs=n_pairs, seed=seed)
    normalized = lip.normalize_to_one_lipschitz(h, box, est)
    prof_spec = params.get("profile", {"rho0": "auto"})
    rho0 = prof_spec.get("rho0", "auto")
    profile = None if rho0 == "auto" else lip.ScaleProfile(rho0=float(rho0))
    decomp = lip.radial_decomposition(normalized, box, scale_profile=profile,
                                      n_pairs=n_pairs, seed=seed)

    split = None
    flow_spec = params.get("flow")
    if flow_spec is not None:
        schedule = dynamics.sin_squared_schedule(float(flow_spec["period_T"]))
        rng = derive_rng(seed, "lipschitz-flow-initial")
        u0 = float(flow_spec.get("u_scale", 1.0)) * rng.standard_normal(dim_u)
        p0 = float(flow_spec.get("p_scale", 1.0)) * rng.standard_normal(dim_u)
        state = dynamics.make_state(
            PhasePoint(u=u0, p=p0, n_molecules=n_mol), schedule)
        _, snaps = dynamics.run_cycles(field, schedule, state,
                                       flow_spec["n_cycles"],
                                       float(flow_spec["dt"]),
                                       store_trajectory=False)
        split = lip.check_constraint_split(decomp, snaps)

    report = lip.decomposition_report(decomp, split)
    report["raw_estimate"] = est.constant_hat
    report["normalization_scale"] = normalized.scale
    atomic_write_json(os.path.join(outdir, "decomposition_report.json"), report)
    if not decomp.tuning_converged:
        raise NumericRunError(f"decomposition tuning failed: {decomp.note}")
    summary = {
        "raw_estimate": est.constant_hat,
        "global_estimate": decomp.global_estimate,
        "rho0": decomp.profile.rho0,
        "identity_max_abs_residual": decomp.identity_max_abs_residual,
    }
    return ["decomposition_report.json"], summary


def _observable(fn_spec):
    name = fn_spec["name"]
    index = int(fn_spec.get("index", 0))
    if name == "coordinate":
        return lambda x: x[:, index]
    if name == "norm":
        return lambda x: np.linalg.norm(x, axis=1)
    if name == "coordinate_mean":
        return lambda x: x.mean(axis=1)
    raise ValueError(f"unknown observable {name!r}")


def run_concentration(params, seed, outdir):
    space = params["space"]
    sampler = conc.MMSpaceSampler(
        kind=space["kind"], dimension=space["dimension"], seed=seed,
        sigma=float(space.get("sigma", 1.0)),
        bounds=tuple(space.get("bounds", (0.0, 1.0))))
    f = _observable(params["function"])
    profile = conc.concentration_profile(
        f, sampler, np.asarray(params["rho_grid"], dtype=float), params["n"],
        sigma_f=float(params.get("sigma_f", 1.0)),
        rho_p=params.get("rho_p"))
    conc.profile_to_csv(profile, os.path.join(outdir, "profile.csv"))
    conc.fit_summary_json(profile, os.path.join(outdir, "fit_summary.json"))
    if profile.fit is None:
        raise NumericRunError(
            "tail fit unavailable: no 3 grid points with enough exceedances")
    summary = {
        "median_hat": profile.median_hat,
        "C1_hat": profile.fit.C1_hat,
        "C2_hat": profile.fit.C2_hat,
    }
    return ["profile.csv", "fit_summary.json"], summary


def run_sphere(params, seed, outdir):
    report = conc.sphere_isoperimetric_check(
        params["sphere_dimension"],
        np.asarray(params["epsilon_grid"], dtype=float),
        params["n"], seed, method=params.get("method", "cap_exact"))
    conc.isoperimetric_to_csv(report, os.path.join(outdir, "isoperimetric.csv"))
    summary = {
        "median_hat": report.median_hat,
        "all_bounds_met": report.passed,
    }
    return ["isoperimetric.csv"], summary


def run_wep(params, seed, outdir):
    n_list = params["n_list"]
    field = build_field(params["field"], 8 * max(n_list), seed)
    prep = build_preparation(params["preparation"], seed)
    config = obs.WepConfig(
        n_list=n_list,
        n_trials=params["n_trials"],
        flow=obs.FlowParams(field=field, period_T=float(params["period_T"]),
                            dt=float(params["dt"])),
        preparation=prep,
        n_cycles=params["n_cycles"],
        rho_grid=np.asarray(params["rho_grid"], dtype=float),
        seed=seed,
        n_reference=int(params.get("n_reference", 100_000)),
    )
    report = obs.wep_experiment(config)
    obs.wep_to_csv(report, os.path.join(outdir, "wep_trajectories.csv"))
    obs.wep_summary_json(report, os.path.join(outdir, "wep_summary.json"))
    summary = {
        "monotonic_ok": report.monotonic_ok,
        "medians": {str(n): m for n, m in report.monotonicity},
    }
    return ["wep_trajectories.csv", "wep_summary.json"], summary


def run_gravity(params, seed, outdir):
    constants = grav.codata2018()
    spec = params.get("cases", "default")
    if spec == "default":
        cases = grav.default_sweep_cases(
            constants, both_conventions=bool(params.get("both_conventions", True)))
    else:
        cases = [grav.GravityScaleCase.from_lambda(
            name=c["name"], m=float(c["m"]), r2=float(c["r2"]),
            lam=float(c["lambda"]),
            M_mass=None if c.get("M_mass") is None else float(c["M_mass"]),
            density_convention=c.get("density_convention", "r1"))
            for c in spec]
    table = grav.scale_sweep(cases, constants)
    table.to_csv(os.path.join(outdir, "sweep.csv"))
    grav.constants_json(constants, os.path.join(outdir, "constants.json"))
    if not table.passed:
        failed = [r.name for r in table.rows if not r.expectation_ok]
        raise NumericRunError(f"sweep expectations failed for: {failed}")
    summary = {"n_cases": len(table.rows), "expectations_ok": table.passed}
    return ["sweep.csv", "constants.json"], summary


RUNNERS = {
    "flow": run_flow,
    "lipschitz": run_lipschitz,
    "concentration": run_concentration,
    "sphere": run_sphere,
    "wep": run_wep,
    "gravity": run_gravity,
}


def run(config: dict, outdir: str | None = None, threads: int = 1) -> dict:
    """Validate, dispatch and persist one experiment; returns the manifest."""
    violations = validate_config(config)
    if violations:
        raise ValidationFailure(violations)
    experiment = config["experiment"]
    seed = config["seed"]
    outdir = outdir or config.get("output_dir") or f"out/{experiment}"
    os.makedirs(outdir, exist_ok=True)
    outputs, summary = RUNNERS[experiment](config["parameters"], seed, outdir)
    manifest = {
        "experiment": experiment,
        "config_hash": config_hash(config),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seeds_used": [seed],
        "threads": threads,
        "output_files": outputs,
        "summary": summary,
    }
    atomic_write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="randerslab",
        description="Seeded, reproducible experiments over the flow, "
                    "Lipschitz, concentration, sphere, WEP and gravity "
                    "modules.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS + ("validate",):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker hint; results are independent of it")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
    except OSError as exc:
        print(f"I/O failure reading config: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"validation failure: config is not valid JSON: {exc}",
              file=sys.stderr)
        return 2

    if args.seed is not None:
        config["seed"] = args.seed

    if args.command == "validate":
        violations = validate_config(config)
        if violations:
            for item in violations:
                print(f"violation: {item}")
            return 2
        print("config ok")
        return 0

    if args.threads is not None and args.threads < 1:
        print("validation failure: --threads must be >= 1", file=sys.stderr)
        return 2
    if config.get("experiment") != args.command:
        print(f"validation failure: config experiment "
              f"{config.get('experiment')!r} does not match subcommand "
              f"{args.command!r}", file=sys.stderr)
        return 2

    try:
        manifest = run(config, outdir=args.out, threads=args.threads or 1)
    except ValidationFailure as exc:
        for item in exc.violations:
            print(f"violation: {item}", file=sys.stderr)
        return 2
    except (NumericRunError, dynamics.BlowUpError,
            conc.FitUnavailableError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4
    print(json.dumps(manifest["summary"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
