"""Experiment runner: strict JSON configs, seeded runs, atomic outputs.

Subcommands: flow, lipschitz, concentration, sphere, wep, gravity,
validate, each importing only the modules it calls.  Exit codes: 0 success,
2 validation failure, 3 numeric failure (runio.NumericError), 4 I/O failure.
Rerunning a config with the same seed reproduces every CSV/JSON output byte
for byte; only the manifest timestamp differs.  The schema tables below are
the reference for every config key, its type, its check and its default.
"""

import argparse
import datetime
import json
import os
import platform
import sys

import numpy as np

from . import __version__, dynamics
from .geometry import PhasePoint, constant_field, tanh_field, zero_field
from .runio import (NumericError, atomic_write_json, config_hash, derive_rng,
                    usable_cores)

EXPERIMENTS = ("flow", "lipschitz", "concentration", "sphere", "wep", "gravity")


class NumericRunError(NumericError):
    pass


# ---------------------------------------------------------------------------
# config schema
#
# A table maps each key to (kind, check, default).  A kind is int, float
# (any finite number; no number kind takes a bool), str, bool, dict (any
# object), a nested table, [kind] (a list of that kind), Variants, or a tuple
# of alternatives: the first that matches applies, and the literals None and
# "..." match themselves and skip the check.  A check is (predicate,
# message).  default is REQUIRED or the value of an absent key; it is walked
# like a given value, so the default {} of a nested table fills in that
# table's defaults.  Keys outside a table are rejected.

REQUIRED = object()
_INVALID = object()


class Variants(dict):
    """Nested tables, of which an object's ``family`` key picks one."""
    tag = "family"


_SCALARS = {int: (lambda x: isinstance(x, int) and not isinstance(x, bool),
                  "integer"),
            # NaN fails the comparison, as do infinities and huge ints
            float: (lambda x: isinstance(x, (int, float)) and not isinstance(
                x, bool) and abs(x) <= sys.float_info.max, "finite number"),
            # a lone surrogate, which json accepts, cannot be written as UTF-8
            str: (lambda x: isinstance(x, str) and not any(
                "\ud800" <= c <= "\udfff" for c in x), "UTF-8 string"),
            bool: (lambda x: isinstance(x, bool), "boolean"),
            dict: (lambda x: isinstance(x, dict), "object"),
            list: (lambda x: isinstance(x, list), "list")}

# Every RK4 march takes at most MAX_RK4_STEPS steps; the flow trajectory
# CSV, whose rows hold u and p at every store_stride-th step, at most this
# many bytes of doubles (the march streams its rows to the file, so this
# bounds the file, not memory).
MAX_RK4_STEPS = 10**7
MAX_TRAJECTORY_BYTES = 2**30
# The arrays a sample count sizes take at most this many bytes: the two
# stream vectors of concentration and sphere, both allocated before either
# stream is drawn, the wep reference positions, the positions of the wep
# trials at the largest N that the workers march at once (each marched in
# place, and counted at twice its size), the wep observables and the
# lipschitz pair ends.
MAX_SAMPLE_BYTES = 2**30

POSITIVE = (lambda x: x > 0, "must be positive")
NONNEGATIVE = (lambda x: x >= 0, "must be >= 0")


def _one_of(*choices):
    return (lambda x: x in choices, f"must be one of {choices}")


PERIOD = {"period_T": (float, POSITIVE, REQUIRED),
          "dt": (float, POSITIVE, REQUIRED),
          "n_cycles": (int, POSITIVE, REQUIRED)}
INITIAL = {"u_scale": (float, None, 1.0), "p_scale": (float, None, 1.0)}
GRID = ([float], (lambda g: g and g[0] > 0 and all(b > a for a, b in zip(g, g[1:])),
                  "must be a nonempty ascending list of positive numbers"),
        REQUIRED)
N_SAMPLES = (int, (lambda n: n >= 100, "need n >= 100"), REQUIRED)
# componentwise families (wep batches trials), |beta_i| < 1 by construction
FIELD = Variants({
    "zero": {},
    "constant": {"value": (float, (lambda x: abs(x) < 1, "|value| must be < 1"),
                           REQUIRED)},
    "tanh": {"amplitude": (float, (lambda x: 0 < x < 1,
                                   "amplitude must lie in (0, 1)"), REQUIRED)},
})
GRAVITY_CASE = {
    "name": (str, None, REQUIRED),
    "m": (float, NONNEGATIVE, REQUIRED),
    "M_mass": ((None, float), NONNEGATIVE, None),
    "r2": (float, POSITIVE, REQUIRED),
    "lambda": (float, POSITIVE, REQUIRED),
    "density_convention": (str, _one_of("r1", "r2"), "r1"),
}

SCHEMAS = {
    "flow": {
        "n_molecules": (int, POSITIVE, REQUIRED),
        "field": (FIELD, None, REQUIRED),
        **PERIOD,
        "initial": (INITIAL, None, {}),
        "store_stride": (int, POSITIVE, 1),
    },
    "lipschitz": {
        "n_molecules": (int, POSITIVE, REQUIRED),
        "field": (FIELD, None, REQUIRED),
        "box_half_width": (float, POSITIVE, REQUIRED),
        "metric": ({"kind": (str, _one_of("euclidean", "weighted"), "euclidean"),
                    "u_scale": (float, POSITIVE, 1.0),
                    "p_scale": (float, POSITIVE, 1.0)}, None, {}),
        "n_pairs": (int, POSITIVE, REQUIRED),
        "profile": ({"rho0": (("auto", float), POSITIVE, "auto")}, None, {}),
        # absent or null: no flow, hence no constraint split
        "flow": ((None, {**PERIOD, **INITIAL}), None, None),
    },
    "concentration": {
        "space": ({"kind": (str, _one_of("sphere", "gaussian", "product_uniform"),
                            REQUIRED),
                   "dimension": (int, POSITIVE, REQUIRED),
                   "sigma": (float, POSITIVE, 1.0),
                   "bounds": ([float], (lambda b: len(b) == 2 and b[0] < b[1],
                                        "must be [low, high] with low < high"),
                              [0.0, 1.0])}, None, REQUIRED),
        "function": ({"name": (str, _one_of("coordinate", "norm", "coordinate_mean"),
                               REQUIRED),
                      "index": (int, NONNEGATIVE, 0)}, None, REQUIRED),
        "rho_grid": GRID,
        "n": N_SAMPLES,
        "sigma_f": (float, POSITIVE, 1.0),
        "rho_p": ((None, float), POSITIVE, None),
    },
    "sphere": {
        "sphere_dimension": (int, (lambda n: n >= 2, "must be >= 2"), REQUIRED),
        "epsilon_grid": GRID,
        "n": N_SAMPLES,
    },
    "wep": {
        "n_list": ([int], (lambda ns: ns and ns[0] >= 2 and ns == sorted(set(ns)),
                           "must be a strictly ascending list of N >= 2"), REQUIRED),
        # sigma_x is the spread over trials: zero for a single trial
        "n_trials": (int, (lambda n: n >= 2, "must be >= 2"), REQUIRED),
        "field": (FIELD, None, REQUIRED),
        "preparation": ({"mean": ((float, [float]),
                                  (lambda m: not isinstance(m, list) or len(m) == 8,
                                   "list must have 8 entries"), 0.0),
                         "scale": (float, POSITIVE, 1.0)}, None, REQUIRED),
        **PERIOD,
        "rho_grid": GRID,
        "n_reference": (int, POSITIVE, 100_000),
    },
    "gravity": {
        "cases": (("default", [GRAVITY_CASE]),
                  (bool, "must be 'default' or a nonempty list"), "default"),
        "both_conventions": (bool, None, True),
    },
}
ROOT = {
    "experiment": (str, _one_of(*EXPERIMENTS), REQUIRED),
    "seed": (int, NONNEGATIVE, REQUIRED),
    "output_dir": (str, None, ""),  # "" or absent: --out or out/<experiment>
}


def _json_type(kind):
    """(predicate, name) of the JSON type that kind takes, not looking into
    containers."""
    if isinstance(kind, list):
        return _SCALARS[list][0], f"list of {_json_type(kind[0])[1]}s"
    if isinstance(kind, dict):
        return _SCALARS[dict]
    if isinstance(kind, type):
        return _SCALARS[kind]
    return (lambda x: type(x) is type(kind) and x == kind), json.dumps(kind)


def _walk(kind, check, x, path, v):
    """Check x against kind and check, appending violations to v; returns x
    with the defaults filled in and float kinds as floats, or _INVALID."""
    alternatives = kind if isinstance(kind, tuple) else (kind,)
    kind = next((k for k in alternatives if _json_type(k)[0](x)), _INVALID)
    if kind is _INVALID:
        names = " or ".join(_json_type(k)[1] for k in alternatives)
        v.append(f"{path}: expected {names}, got {x!r:.40}")
        return _INVALID
    if isinstance(kind, list):
        x = [_walk(kind[0], None, item, f"{path}[{i}]", v)
             for i, item in enumerate(x)]
        if any(item is _INVALID for item in x):
            return _INVALID
    elif isinstance(kind, Variants):
        tag = x.get(kind.tag)
        table = kind.get(tag, {}) if isinstance(tag, str) else {}
        x = _walk_table({kind.tag: (str, _one_of(*kind), REQUIRED), **table},
                        x, path, v)
    elif isinstance(kind, dict):
        x = _walk_table(kind, x, path, v)
    elif not isinstance(kind, type):
        return x  # a literal
    if check and not check[0](x):
        v.append(f"{path}: {check[1]}")
        return _INVALID
    return float(x) if kind is float else x


def _walk_table(table, node, path, v):
    prefix = path + "." if path else ""
    v.extend(f"{prefix}{key}: unknown key" for key in node if key not in table)
    out = {}
    for key, (kind, check, default) in table.items():
        if key not in node and default is REQUIRED:
            v.append(f"{prefix}{key}: missing required field")
            continue
        x = _walk(kind, check, node.get(key, default), prefix + key, v)
        if x is not _INVALID:
            out[key] = x
    return out


def _cross_check(params, v):
    """Checks that span keys; a key that failed its own check is absent
    from ``params`` and skips the checks it takes part in."""
    for path, node in (("parameters.", params),
                       ("parameters.flow.", params.get("flow"))):
        if isinstance(node, dict) and "dt" in node and "period_T" in node:
            try:
                steps = dynamics.steps_per_period(node["period_T"], node["dt"])
            except dynamics.GridAlignmentError:
                v.append(f"{path}dt: dt = {node['dt']} does not divide "
                         f"period_T = {node['period_T']}")
                continue
            steps *= 2 * node.get("n_cycles", 1)
            # only flow has n_molecules and store_stride beside dt; its CSV
            # has 2 x 8N doubles at steps 0, store_stride, 2 store_stride, ...
            rows = (steps // node["store_stride"] + 1
                    if "store_stride" in node else 0)
            stored = rows * 128 * node.get("n_molecules", 0)
            if steps > MAX_RK4_STEPS:
                v.append(f"{path}dt: 2 * n_cycles * period_T / dt exceeds "
                         f"{MAX_RK4_STEPS} RK4 steps")
            elif stored > MAX_TRAJECTORY_BYTES:
                v.append(f"{path}dt: the stored trajectory exceeds "
                         f"{MAX_TRAJECTORY_BYTES} bytes")
    n, n_list = params.get("n"), params.get("n_list")
    if n is not None:  # imported only for the configs that size by them
        from . import concentration as conc
    if n_list is not None:
        from . import observables as obs
    doubles = {
        # sphere draws n values on each of two streams, concentration takes
        # its median from a smaller stream
        "n": 0 if n is None else n + (n if "sphere_dimension" in params
                                      else conc.median_stream_size(n)),
        # (n, 4) positions, marched in place; the bound counts twice the 4
        # doubles per molecule they take
        "n_reference": 8 * params.get("n_reference", 0),
        # the same for the trials at the largest N that the WORKERS of the
        # pool march at once, one trial per task at a large N
        "n_list": 0 if n_list is None else (
            8 * max(n_list) * min(params.get("n_trials", 1), obs.WORKERS)),
        # per trial and instant: the A, B and S centers of mass (4 each),
        # D_AB and the three distances to the guide
        "n_trials": 16 * params.get("n_trials", 0)
                    * (params.get("n_cycles", 0) + 1),
        "n_pairs": 2 * 16 * params.get("n_molecules", 0)
                   * params.get("n_pairs", 0),
    }
    for key, count in doubles.items():
        if 8 * count > MAX_SAMPLE_BYTES:
            v.append(f"parameters.{key}: the sample arrays exceed "
                     f"{MAX_SAMPLE_BYTES} bytes")
    space, fn = params.get("space", {}), params.get("function", {})
    if "kind" in space and "dimension" in space:
        sphere = space["kind"] == "sphere"
        ambient = space["dimension"] + 1 if sphere else space["dimension"]
        if sphere and space["dimension"] < 2:
            v.append("parameters.space.dimension: sphere dimension must be >= 2")
        elif "index" in fn and fn["index"] >= ambient:
            v.append(f"parameters.function.index: must be < {ambient}, "
                     "the ambient dimension")


def _walk_config(config):
    """(config with every default filled in, violations); the config
    itself is left as it is."""
    if not isinstance(config, dict):
        return None, ["config: top level must be an object"]
    v, exp = [], config.get("experiment")
    # an unknown experiment leaves its parameters unchecked
    schema = SCHEMAS.get(exp, dict) if isinstance(exp, str) else dict
    filled = _walk_table({**ROOT, "parameters": (schema, None, REQUIRED)},
                         config, "", v)
    if schema is not dict and "parameters" in filled:
        _cross_check(filled["parameters"], v)
    return filled, v


def validate_config(config: dict) -> list:
    """Full strict schema check; returns a list of violation strings."""
    return _walk_config(config)[1]


# ---------------------------------------------------------------------------
# builders


def build_field(spec: dict, dim: int, seed: int):
    """The field of a validated ``field`` spec; no family draws on seed."""
    family = spec["family"]
    if family == "zero":
        return zero_field(dim)
    if family == "constant":
        return constant_field(float(spec["value"]), dim)
    if family == "tanh":
        return tanh_field(dim, float(spec["amplitude"]))
    raise ValueError(f"unknown field family {family!r}")


# ---------------------------------------------------------------------------
# experiment runners; each takes parameters with every default filled in
# and returns (output file names, summary dict)


def _initial_state(n_mol, scales, schedule, seed, tag):
    """Flow state at t = 0: u, then p, drawn as standard normals from the
    ``derive_rng(seed, tag)`` stream and scaled by ``scales["u_scale"]``
    and ``scales["p_scale"]``."""
    dim = 8 * n_mol
    rng = derive_rng(seed, tag)
    with np.errstate(over="ignore"):  # reported below
        u0 = scales["u_scale"] * rng.standard_normal(dim)
        p0 = scales["p_scale"] * rng.standard_normal(dim)
    if not (np.isfinite(u0).all() and np.isfinite(p0).all()):
        raise NumericRunError("initial point overflows: a scaled coordinate "
                              "is not finite")
    return dynamics.make_state(PhasePoint(u=u0, p=p0, n_molecules=n_mol),
                               schedule)


def run_flow(params, seed, outdir):
    n_mol = params["n_molecules"]
    field = build_field(params["field"], 8 * n_mol, seed)
    schedule = dynamics.sin_squared_schedule(params["period_T"])
    state = _initial_state(n_mol, params["initial"], schedule, seed,
                           "flow-initial")
    march, snaps = dynamics.run_cycles(
        field, schedule, state, params["n_cycles"], params["dt"],
        stride=params["store_stride"],
        csv_path=os.path.join(outdir, "trajectory.csv"))
    dynamics.snapshots_to_csv(snaps, os.path.join(outdir, "snapshots.csv"))
    summary = {
        "n_steps": march.n_steps,
        "n_snapshots": len(snaps),
        "final_H": march.final_h,
        "max_invariant_drift": march.max_invariant_drift,
        "randers_margin": march.randers_margin,
    }
    return ["trajectory.csv", "snapshots.csv"], summary


def run_lipschitz(params, seed, outdir):
    from . import lipschitz as lip
    n_mol = params["n_molecules"]
    dim_u = 8 * n_mol
    field = build_field(params["field"], dim_u, seed)

    def h(z):
        z = np.asarray(z, dtype=float)
        return np.sum(field.beta(z[..., :dim_u]) * z[..., dim_u:], axis=-1)

    box = lip.CompactBox.cube(2 * dim_u, params["box_half_width"],
                              metric=lip.BoxMetric(**params["metric"]))
    n_pairs = params["n_pairs"]
    est = lip.estimate_lipschitz(h, box, n_pairs=n_pairs, seed=seed)
    normalized = lip.normalize_to_one_lipschitz(h, est)
    prof = params["profile"]
    profile = None if prof["rho0"] == "auto" else lip.ScaleProfile(**prof)
    decomp = lip.radial_decomposition(normalized, box, scale_profile=profile,
                                      n_pairs=n_pairs, seed=seed)

    split = march = None
    flow_spec = params["flow"]
    if flow_spec is not None:
        schedule = dynamics.sin_squared_schedule(flow_spec["period_T"])
        state = _initial_state(n_mol, flow_spec, schedule, seed,
                               "lipschitz-flow-initial")
        march, snaps = dynamics.run_cycles(field, schedule, state,
                                           flow_spec["n_cycles"],
                                           flow_spec["dt"],
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
        "max_invariant_drift": (None if march is None
                                else march.max_invariant_drift),
        "randers_margin": None if march is None else march.randers_margin,
    }
    return ["decomposition_report.json"], summary


def _observable(fn_spec):
    index = fn_spec["index"]
    return {"coordinate": lambda x: x[:, index],
            "norm": lambda x: np.linalg.norm(x, axis=1),
            "coordinate_mean": lambda x: x.mean(axis=1)}[fn_spec["name"]]


def run_concentration(params, seed, outdir):
    from . import concentration as conc
    space = params["space"]
    sampler = conc.MMSpaceSampler(
        kind=space["kind"], dimension=space["dimension"], seed=seed,
        sigma=space["sigma"], bounds=tuple(space["bounds"]))
    f = _observable(params["function"])
    profile = conc.concentration_profile(
        f, sampler, np.asarray(params["rho_grid"], dtype=float), params["n"],
        sigma_f=params["sigma_f"], rho_p=params["rho_p"])
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
    from . import concentration as conc
    report = conc.sphere_isoperimetric_check(
        params["sphere_dimension"],
        np.asarray(params["epsilon_grid"], dtype=float),
        params["n"], seed)
    conc.isoperimetric_to_csv(report, os.path.join(outdir, "isoperimetric.csv"))
    summary = {
        "median_hat": report.median_hat,
        "all_bounds_met": report.passed,
    }
    return ["isoperimetric.csv"], summary


def run_wep(params, seed, outdir):
    from . import observables as obs
    n_list = params["n_list"]
    field = build_field(params["field"], 8 * max(n_list), seed)
    prep = params["preparation"]
    config = obs.WepConfig(
        n_list=n_list,
        n_trials=params["n_trials"],
        flow=obs.FlowParams(field=field, period_T=params["period_T"],
                            dt=params["dt"]),
        preparation=obs.Preparation(
            mean=np.asarray(prep["mean"], dtype=float),
            covariance=prep["scale"]**2 * np.eye(8), seed=seed),
        n_cycles=params["n_cycles"],
        rho_grid=np.asarray(params["rho_grid"], dtype=float),
        seed=seed,
        n_reference=params["n_reference"],
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
    from . import gravity_scales as grav
    constants = grav.codata2018()
    spec = params["cases"]
    if spec == "default":
        cases = grav.default_sweep_cases(
            constants, both_conventions=params["both_conventions"])
    else:
        cases = [grav.GravityScaleCase.from_lambda(
            name=c["name"], m=c["m"], r2=c["r2"], lam=c["lambda"],
            M_mass=c["M_mass"], density_convention=c["density_convention"])
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


def _platform() -> str:
    """System, release, machine and C library, as in
    ``platform.platform()`` on Linux, without the processor field, which
    Linux resolves by running ``uname -p`` in a subprocess."""
    u = platform.uname()
    libc = "".join(platform.libc_ver())
    return "-".join([u.system, u.release, u.machine]
                    + (["with", libc] if libc else []))


def run(config: dict, outdir: str | None = None) -> dict:
    """Dispatch and persist one experiment whose config ``main`` has
    validated; returns the manifest."""
    filled, _ = _walk_config(config)
    experiment = filled["experiment"]
    seed = filled["seed"]
    outdir = outdir or filled["output_dir"] or f"out/{experiment}"
    os.makedirs(outdir, exist_ok=True)
    outputs, summary = RUNNERS[experiment](filled["parameters"], seed, outdir)
    manifest = {
        "experiment": experiment,
        "config_hash": config_hash(config),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seeds_used": [seed],
        "output_files": outputs,
        "summary": summary,
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "platform": _platform(),
                        "usable_cores": usable_cores()},
    }
    atomic_write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest


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
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"I/O failure reading config: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # not JSON, not UTF-8, or an over-long integer
        print(f"validation failure: config is not valid JSON: {exc}",
              file=sys.stderr)
        return 2

    if args.seed is not None and isinstance(config, dict):
        config["seed"] = args.seed

    checking = args.command == "validate"
    if (not checking and isinstance(config, dict)
            and config.get("experiment") != args.command):
        print(f"validation failure: config experiment "
              f"{config.get('experiment')!r} does not match subcommand "
              f"{args.command!r}", file=sys.stderr)
        return 2
    violations = validate_config(config)
    for item in violations:
        print(f"violation: {item}", file=sys.stdout if checking else sys.stderr)
    if violations:
        return 2
    if checking:
        print("config ok")
        return 0

    try:
        manifest = run(config, outdir=args.out)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4
    print(json.dumps(manifest["summary"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
