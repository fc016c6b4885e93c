"""Acceptance suite: one test per criterion, each recording a PASS/FAIL
line that is echoed in the terminal summary."""

import math
import os
import time

import numpy as np
import pytest
import scipy.linalg

from test_cli import small_configs, write_config

from randerslab import cli
from randerslab.concentration import (
    concentration_profile,
    fit_decay_constant,
    sphere,
    sphere_isoperimetric_check,
    sphere_neighborhood_bound,
    sphere_tail_bound,
)
from randerslab.dynamics import (
    constant_schedule,
    hamiltonian,
    make_state,
    run_cycles,
    sin_squared_schedule,
    step_flow,
)
from randerslab.geometry import PhasePoint, linear_field, tanh_field, zero_field
from randerslab.lipschitz import (
    CompactBox,
    estimate_lipschitz,
    normalize_to_one_lipschitz,
    radial_decomposition,
)
from randerslab.gravity_scales import (
    GravityScaleCase,
    alpha_closed_form,
    alpha_oracle,
    codata2018,
    default_sweep_cases,
    scale_sweep,
)
from randerslab.observables import (
    FlowParams,
    Preparation,
    WepConfig,
    wep_experiment,
)


def record(acceptance_report, number, name, checks):
    ok = all(bool(v) for v in checks.values())
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} ({name}): {status}"
    if not ok:
        failed = [k for k, v in checks.items() if not v]
        line += f" [failed: {', '.join(failed)}]"
    acceptance_report.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def wep_tanh():
    """The full-scale WEP run shared by criteria 4 and 7."""
    config = WepConfig(
        n_list=[100, 1000, 10_000],
        n_trials=200,
        flow=FlowParams(field=tanh_field(8, 0.9), period_T=1.0, dt=0.1),
        preparation=Preparation(mean=0.0, covariance=np.eye(8), seed=0),
        n_cycles=8,
        rho_grid=np.linspace(0.5, 40.0, 40),
        seed=2024,
        n_reference=100_000,
    )
    t0 = time.perf_counter()
    report = wep_experiment(config)
    elapsed = time.perf_counter() - t0
    return report, elapsed


@pytest.fixture(scope="module")
def wep_zero_control():
    """Dynamics-free control: separation statistics are pure sampling."""
    reports = {}
    t0 = time.perf_counter()
    for n in (100, 400):
        config = WepConfig(
            n_list=[n], n_trials=200,
            flow=FlowParams(field=zero_field(8), period_T=1.0, dt=0.1),
            preparation=Preparation(mean=0.0, covariance=np.eye(8), seed=0),
            n_cycles=8,
            rho_grid=np.linspace(0.25, 8.0, 32),
            seed=77,
            n_reference=50_000,
        )
        reports[n] = wep_experiment(config)
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_1_sphere_concentration(acceptance_report):
    t0 = time.perf_counter()
    dims = [16, 64, 256]
    n = 100_000
    raw_slopes = []
    bounds_ok = True
    for n_dim in dims:
        grid = np.linspace(0.25, 3.0, 12) / math.sqrt(n_dim - 1)
        prof = concentration_profile(lambda x: x[:, 0], sphere(n_dim, 31),
                                     grid, n, rho_p=1.0)
        bound = sphere_tail_bound(grid, n_dim)
        se = np.sqrt(prof.tail_prob * (1.0 - prof.tail_prob) / n)
        usable = prof.exceed_counts >= 10
        bounds_ok &= bool(np.all(prof.tail_prob[usable]
                                 <= (bound + 3 * se)[usable]))
        raw_slopes.append(fit_decay_constant(prof).C2_hat / 2.0)
    x = np.array(dims, dtype=float) - 1.0
    r_squared = np.corrcoef(x, np.array(raw_slopes))[0, 1] ** 2
    elapsed = time.perf_counter() - t0
    record(acceptance_report, 1, "sphere concentration", {
        "tail below Levy bound at every usable grid point": bounds_ok,
        "slope vs (N-1) regression R^2 > 0.99": r_squared > 0.99,
        "runtime < 60 s": elapsed < 60.0,
    })


def test_criterion_2_isoperimetric_neighborhood(acceptance_report):
    report = sphere_isoperimetric_check(256, [0.1, 0.2, 0.3], 100_000, 32)
    bound_zero = sphere_neighborhood_bound(0.0, 256)
    record(acceptance_report, 2, "isoperimetric neighborhood bound", {
        "empirical measure >= bound - 3 SE at every epsilon": report.passed,
        "analytic bound at eps = 0 equals 1 - sqrt(pi/8) to 1e-5":
            abs(bound_zero - (1.0 - math.sqrt(math.pi / 8.0))) < 1e-5,
    })


def test_criterion_3_flow_correctness(acceptance_report):
    # (a) linear field against the matrix-exponential oracle
    dim = 64
    rng = np.random.default_rng(33)
    w = rng.standard_normal((dim, dim))
    skew = 0.5 * (w - w.T)
    skew *= 0.3 / np.abs(skew).max()
    a = -(0.5 * np.eye(dim) + skew)
    field = linear_field(a)
    sched0 = constant_schedule(1.0, 0.0)
    pt = PhasePoint(u=0.2 * rng.standard_normal(dim),
                    p=rng.standard_normal(dim), n_molecules=8)
    state = make_state(pt, sched0)
    for _ in range(10_000):
        state = step_flow(field, sched0, state, dt=1e-4)
    oracle = scipy.linalg.expm(-a.T) @ pt.p
    rel_err = np.linalg.norm(state.point.p - oracle) / np.linalg.norm(oracle)

    # (b) frozen-kappa Hamiltonian drift over 1e4 steps
    tanh = tanh_field(dim, 0.9)
    frozen = constant_schedule(1.0, 0.3)
    st2 = make_state(PhasePoint(u=rng.standard_normal(dim),
                                p=rng.standard_normal(dim), n_molecules=8),
                     frozen)
    h0 = hamiltonian(tanh, frozen, st2)
    p0_norm = np.linalg.norm(st2.point.p)
    for _ in range(10_000):
        st2 = step_flow(tanh, frozen, st2, dt=1e-3)
    drift = abs(hamiltonian(tanh, frozen, st2) - h0)

    # (c) equilibrium snapshots of the cyclic run
    sched = sin_squared_schedule(1.0)
    st3 = make_state(PhasePoint(u=rng.standard_normal(dim),
                                p=rng.standard_normal(dim), n_molecules=8),
                     sched)
    _, snaps = run_cycles(tanh, sched, st3, n_cycles=3, dt=1e-3,
                          store_trajectory=False)
    snap_ok = all(abs(s.h_value) <= 1e-9 * (1 + np.linalg.norm(s.point.p))
                  for s in snaps)

    record(acceptance_report, 3, "flow correctness", {
        "p(1) matches expm oracle to 1e-8 relative": rel_err < 1e-8,
        "frozen-kappa drift <= 1e-6 (1 + |p0|)": drift <= 1e-6 * (1 + p0_norm),
        "snapshot H <= 1e-9 (1 + |p|)": snap_ok,
    })


def test_criterion_4_randers_lipschitz_propagation(acceptance_report, wep_tanh):
    bound = 0.9
    field = tanh_field(32, bound)
    sched = sin_squared_schedule(1.0)
    rng = np.random.default_rng(34)
    state = make_state(PhasePoint(u=rng.standard_normal(32),
                                  p=rng.standard_normal(32), n_molecules=4),
                       sched)
    traj, _ = run_cycles(field, sched, state, n_cycles=4, dt=0.01)
    du = np.abs(np.diff(traj.u, axis=0)).max()
    traj_ok = du <= bound * 0.01 * (1 + 1e-6)

    report, _ = wep_tanh
    x_ok = all(res.x_step_max_ratio <= bound * (1 + 1e-6)
               for res in report.per_size.values())
    record(acceptance_report, 4, "Randers/Lipschitz propagation", {
        "per-component trajectory steps within 0.9 dt": traj_ok,
        "WEP observable steps within 0.9 T": x_ok,
    })


def test_criterion_5_lipschitz_estimator_calibration(acceptance_report):
    rng = np.random.default_rng(35)
    a = rng.standard_normal(32)
    box = CompactBox.cube(32, 0.5)
    f = lambda z: z @ a
    est = estimate_lipschitz(f, box, n_pairs=10_000, seed=36)
    target = np.linalg.norm(a)
    g = normalize_to_one_lipschitz(f, est)
    re_est = estimate_lipschitz(g, box, n_pairs=10_000, seed=37)
    record(acceptance_report, 5, "Lipschitz estimator calibration", {
        "pair-sampling estimate within 2% of |a|":
            abs(est.constant_hat - target) <= 0.02 * target,
        "normalized re-estimate <= 1.02": re_est.constant_hat <= 1.02,
    })


def test_criterion_6_radial_decomposition(acceptance_report):
    field = tanh_field(8, 0.9)
    dim_u = 8
    box = CompactBox.cube(16, 1.0)

    def h_raw(z):
        z = np.asarray(z, dtype=float)
        return np.sum(field.beta(z[..., :dim_u]) * z[..., dim_u:], axis=-1)

    est = estimate_lipschitz(h_raw, box, n_pairs=6000, seed=38)
    h = normalize_to_one_lipschitz(h_raw, est)
    decomp = radial_decomposition(h, box, seed=39)

    rng = np.random.default_rng(40)
    z_in = box.sample(30_000, rng)
    z_out = box.enlarge(3.0).sample(70_000, rng)
    z = np.vstack([z_in, z_out])
    resid = np.abs(h(z) - (decomp.lipschitz_part(z) + decomp.matter_part(z)))
    matter_inside = np.abs(decomp.matter_part(z_in))

    record(acceptance_report, 6, "radial decomposition", {
        "identity residual <= 1e-12 over 1e5 points": resid.max() <= 1e-12,
        "matter part identically zero on the box": matter_inside.max() == 0.0,
        "auto-tuned global estimate <= 1.05":
            decomp.tuning_converged and decomp.global_estimate <= 1.05,
    })


def test_criterion_7_wep_concentration(acceptance_report, wep_tanh,
                                       wep_zero_control):
    report, elapsed = wep_tanh
    zero_reports, zero_elapsed = wep_zero_control

    meds = [m for _, m in report.monotonicity]
    inversions = sum(1 for x, y in zip(meds, meds[1:]) if y > x)

    m_small = zero_reports[100].per_size[100].median_sup_d_ab
    m_large = zero_reports[400].per_size[400].median_sup_d_ab
    clt_ratio = m_small / m_large

    fits_ok = True
    for n in report.config.n_list:
        prof = report.per_size[n].profiles["S"]
        fits_ok &= prof.fit is not None and prof.fit.C2_hat > 0.0

    record(acceptance_report, 7, "WEP concentration", {
        "median sup D_AB nonincreasing in N (<= 1 inversion)": inversions <= 1,
        "zero-field control halves at 4x N within 25%":
            1.5 <= clt_ratio <= 2.5,
        "D_SM/sigma_X tail admits log-linear fit with C2 > 0": fits_ok,
        "runtime < 10 min": (elapsed + zero_elapsed) < 600.0,
    })


def test_criterion_8_newtonian_alpha(acceptance_report):
    constants = codata2018()
    lam = 0.5
    ratios = []
    for decade in range(7):
        case = GravityScaleCase.from_lambda("scale", 1.0, 10.0 ** (decade - 3),
                                            lam)
        ratios.append(alpha_closed_form(case, constants)
                      / alpha_oracle(case, constants))
    ratios = np.array(ratios)
    scale_invariant = bool(np.all(np.abs(ratios / ratios[0] - 1.0) < 1e-10))

    table = scale_sweep(default_sweep_cases(constants), constants)
    by_name = {r.name: r for r in table.rows}
    small_ok = all(by_name[k].alpha_oracle < 1e-30 for k in
                   ("electron-atomic", "proton-nuclear", "kilogram-metre",
                    "earth"))
    planck_ok = 0.1 <= by_name["planck"].alpha_oracle <= 10.0

    saturated = GravityScaleCase.from_lambda("planck-sat", constants.m_P,
                                             constants.l_P, 1.0)
    exact_two = alpha_closed_form(saturated, constants) == 2.0

    record(acceptance_report, 8, "Newtonian alpha", {
        "formula/oracle ratio scale-invariant to 1e-10 over 6 decades":
            scale_invariant,
        "alpha < 1e-30 for proton/atomic/kilogram/earth": small_ok,
        "alpha in [0.1, 10] at the Planck case": planck_ok,
        "lambda=1 Planck-point closed form equals exactly 2": exact_two,
    })


def test_criterion_9_determinism(acceptance_report, tmp_path):
    all_identical = True
    for name, config in small_configs().items():
        cfg = write_config(tmp_path, config, f"{name}.json")
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        assert cli.main([name, "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main([name, "--config", cfg, "--out", str(out2)]) == 0
        for fname in sorted(os.listdir(out1)):
            if fname == "manifest.json":
                continue
            all_identical &= ((out1 / fname).read_bytes()
                              == (out2 / fname).read_bytes())
    record(acceptance_report, 9, "determinism", {
        "rerun with identical config and seed is byte-identical":
            all_identical,
    })
