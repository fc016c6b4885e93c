import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from randerslab.dynamics import (
    BlowUpError,
    EquilibriumSnapshot,
    FlowSummary,
    GridAlignmentError,
    ScheduleError,
    _phase_march,
    constant_schedule,
    equilibrium_cycle,
    hamiltonian,
    instant_step,
    make_state,
    rk4_march,
    run_cycles,
    sin_squared_schedule,
    speed,
    step_flow,
)
from randerslab.geometry import (
    PhasePoint,
    constant_field,
    linear_field,
    tanh_field,
    zero_field,
)
from randerslab.observables import evolve_coordinates
from randerslab.runio import atomic_write_csv


def _point(dim, seed=0, p_scale=1.0):
    rng = np.random.default_rng(seed)
    return PhasePoint(u=rng.normal(size=dim), p=p_scale * rng.normal(size=dim),
                      n_molecules=dim // 8)


def _stable_matrix(dim, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, dim))
    skew = 0.5 * (w - w.T)
    skew *= scale / np.abs(skew).max()
    return -(0.5 * np.eye(dim) + skew)


class TestSchedule:
    def test_default_schedule_invariants(self):
        # kappa in [0, 1] on three fundamental cycles, exactly 1 at the
        # equilibrium instants t = (2n + 1) T, and flat there
        for T in [1.0, 0.25]:
            s = sin_squared_schedule(T)
            for n in range(3):
                for t in np.linspace(2 * n * T, 2 * (n + 1) * T, 101):
                    assert 0.0 <= s.kappa(float(t)) <= 1.0
                t_eq = (2 * n + 1) * T
                assert s.kappa(t_eq) == 1.0
                h = 1e-6 * T
                dk = (s.kappa(t_eq + h) - s.kappa(t_eq - h)) / (2 * h)
                assert abs(dk) < 1e-8

    def test_kappa_exact_limits(self):
        s = sin_squared_schedule(1.0)
        for n in range(4):
            assert s.kappa((2 * n + 1) * 1.0) == 1.0
            assert s.kappa(2 * n * 1.0) == 0.0

    @pytest.mark.parametrize("steps_per_T", [1, 3, 10, 200])
    def test_instant_step_and_equilibrium_cycle_are_inverses(self,
                                                             steps_per_T):
        # instant n sits at step (2n - 1) T/dt; every other step is none
        instants = {instant_step(n, steps_per_T): n for n in range(1, 101)}
        assert instants[steps_per_T] == 1
        for step in range(instant_step(101, steps_per_T)):
            assert equilibrium_cycle(step, steps_per_T) == instants.get(step, 0)


class TestHamiltonian:
    def test_zero_momentum_gives_zero(self):
        field = tanh_field(16, 0.9)
        sched = sin_squared_schedule(1.0)
        pt = PhasePoint(u=np.random.default_rng(0).normal(size=16),
                        p=np.zeros(16), n_molecules=2)
        assert hamiltonian(field, sched, make_state(pt, sched, t=0.37)) == 0.0

    def test_vanishes_at_equilibrium_instant(self):
        field = tanh_field(16, 0.9)
        sched = sin_squared_schedule(1.0)
        state = make_state(_point(16, seed=1), sched, t=1.0)
        h = hamiltonian(field, sched, state)
        assert abs(h) < 1e-10 * (1.0 + np.linalg.norm(state.point.p))

    def test_constant_field_midcycle_value(self):
        dim = 16
        field = constant_field(0.5, dim)
        sched = constant_schedule(1.0, 0.0)
        pt = PhasePoint(u=np.zeros(dim), p=np.ones(dim), n_molecules=2)
        assert hamiltonian(field, sched, make_state(pt, sched)) == pytest.approx(0.5 * dim)

    def test_bad_kappa_raises_schedule_error(self):
        field = zero_field(8)
        sched = sin_squared_schedule(1.0)
        bad = type(sched)(period_T=1.0, kappa=lambda t: 1.5)
        pt = PhasePoint(u=np.zeros(8), p=np.zeros(8), n_molecules=1)
        with pytest.raises(ScheduleError):
            hamiltonian(field, bad, make_state(pt, bad))


class TestStepFlow:
    def test_zero_field_is_fixed_point(self):
        field = zero_field(8)
        sched = sin_squared_schedule(1.0)
        state = make_state(_point(8, seed=2), sched)
        nxt = step_flow(field, sched, state, dt=0.01)
        assert np.array_equal(nxt.point.u, state.point.u)
        assert np.array_equal(nxt.point.p, state.point.p)
        assert nxt.t == pytest.approx(0.01)

    def test_constant_field_translates_u_and_keeps_p(self):
        dim = 8
        c = 0.25
        field = constant_field(c, dim)
        sched = constant_schedule(1.0, 0.0)
        state = make_state(_point(dim, seed=3), sched)
        u0, p0 = state.point.u.copy(), state.point.p.copy()
        for k in range(100):
            state = step_flow(field, sched, state, dt=0.01)
        assert np.allclose(state.point.u, u0 + c * 1.0, atol=1e-12)
        assert np.allclose(state.point.p, p0, atol=1e-14)

    def test_linear_field_momentum_matches_matrix_exponential(self):
        # integrated p(t) must match the scaling-and-squaring oracle
        dim = 64
        a = _stable_matrix(dim, seed=4)
        field = linear_field(a)
        sched = constant_schedule(1.0, 0.0)
        rng = np.random.default_rng(5)
        pt = PhasePoint(u=0.2 * rng.normal(size=dim), p=rng.normal(size=dim),
                        n_molecules=8)
        state = make_state(pt, sched)
        dt = 1e-3
        for _ in range(1000):
            state = step_flow(field, sched, state, dt=dt)
        oracle = scipy.linalg.expm(-a.T * 1.0) @ pt.p
        err = np.linalg.norm(state.point.p - oracle) / np.linalg.norm(oracle)
        assert err < 1e-8

    def test_blow_up_reports_step(self):
        field = linear_field(200.0 * np.eye(8))
        sched = constant_schedule(1.0, 0.0)
        state = make_state(_point(8, seed=6), sched)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as err:
                for _ in range(200):
                    state = step_flow(field, sched, state, dt=1.0)
        # the grid index reached by the step from t = 39 to t = 40, as
        # run_cycles numbers it
        assert (err.value.step_index, err.value.t) == (40, 40.0)


class TestRunCycles:
    def test_zero_field_snapshots_identical(self):
        field = zero_field(8)
        sched = sin_squared_schedule(1.0)
        initial = make_state(_point(8, seed=7), sched)
        traj, snaps = run_cycles(field, sched, initial, n_cycles=3, dt=0.02)
        assert len(snaps) == 3
        for s in snaps:
            assert np.array_equal(s.point.u, initial.point.u)
            assert np.array_equal(s.point.p, initial.point.p)

    def test_randers_margin_over_the_rows_where_h_is_evaluated(self):
        # with every step stored H is evaluated at each row; without, at
        # step 0, the equilibrium steps 20 and 60 and the last step 80
        a = 0.9
        sched = sin_squared_schedule(1.0)
        initial = make_state(_point(16, seed=7), sched)
        traj, _ = run_cycles(tanh_field(16, a), sched, initial, n_cycles=2,
                             dt=0.05)
        assert traj.randers_margin == 1 - a * np.abs(np.tanh(traj.u)).max()
        bare, _ = run_cycles(tanh_field(16, a), sched, initial, n_cycles=2,
                             dt=0.05, store_trajectory=False)
        rows = traj.u[[0, 20, 60, 80]]
        assert bare.randers_margin == 1 - a * np.abs(np.tanh(rows)).max()
        zero, _ = run_cycles(zero_field(16), sched, initial, n_cycles=2,
                             dt=0.05)
        assert zero.randers_margin == 1.0

    def test_zero_momentum_keeps_snapshot_h_zero(self):
        field = tanh_field(16, 0.9)
        sched = sin_squared_schedule(1.0)
        initial = make_state(_point(16, seed=8, p_scale=0.0), sched)
        _, snaps = run_cycles(field, sched, initial, n_cycles=2, dt=0.01)
        assert all(s.h_value == 0.0 for s in snaps)

    def test_trajectory_pairs_obey_lipschitz_speed(self):
        # |u_i(t2) - u_i(t1)| <= bound |t2 - t1| for sampled pairs
        bound = 0.9
        field = tanh_field(16, bound)
        sched = sin_squared_schedule(1.0)
        initial = make_state(_point(16, seed=9), sched)
        traj, _ = run_cycles(field, sched, initial, n_cycles=2, dt=0.01)
        idx = np.linspace(0, traj.t.size - 1, 40).astype(int)
        for i in idx:
            for j in idx:
                if i >= j:
                    continue
                gap = np.abs(traj.u[j] - traj.u[i]).max()
                assert gap <= bound * (traj.t[j] - traj.t[i]) * (1 + 1e-6)

    def test_snapshot_h_bound_enforced(self):
        field = tanh_field(16, 0.9)
        weak = constant_schedule(1.0, 0.0)
        fake = type(weak)(period_T=1.0, kappa=lambda t: 0.9)
        initial = make_state(_point(16, seed=10), fake)
        with pytest.raises(ScheduleError):
            run_cycles(field, fake, initial, n_cycles=1, dt=0.01)

    def test_nan_hamiltonian_at_an_instant_breaks_the_bound(self):
        # G = beta(u)·p overflows to inf, so H = s G is NaN where s = 0
        field = constant_field(0.5, 16)
        sched = sin_squared_schedule(1.0)
        pt = PhasePoint(u=np.zeros(16), p=np.full(16, 1e308), n_molecules=2)
        with np.errstate(over="ignore"):
            with pytest.raises(ScheduleError, match="nan"):
                run_cycles(field, sched, make_state(pt, sched), n_cycles=1,
                           dt=0.1, store_trajectory=False)

    @pytest.mark.parametrize("h, within", [
        (0.0, True), (1e-9 * 3.0, True), (-1e-9 * 3.0, True),
        (1e-9 * 3.0 * (1 + 1e-12), False), (math.nan, False)])
    def test_h_within_bound_scales_with_the_momentum(self, h, within):
        # |p| = 2, so the bound is 1e-9 * (1 + 2)
        pt = PhasePoint(u=np.zeros(8), p=np.array([2.0] + [0.0] * 7),
                        n_molecules=1)
        snap = EquilibriumSnapshot(cycle=1, t=1.0, point=pt, h_value=h)
        assert snap.h_within_bound is within

    @pytest.mark.parametrize("streamed", [False, True], ids=["memory", "csv"])
    def test_cycle_labels_come_from_the_step(self, streamed, tmp_path):
        # T/dt = 3: step 6 is t = 2T, which reads 1.7999999999999998 as
        # 6 * 0.3, below 2 * 0.9 = 1.8; it opens cycle 2
        field = tanh_field(8, 0.5)
        sched = sin_squared_schedule(0.9)
        initial = make_state(_point(8, seed=14), sched)
        out = tmp_path / "trajectory.csv"
        run, snaps = run_cycles(field, sched, initial, n_cycles=2, dt=0.3,
                                stride=1, csv_path=out if streamed else None)
        if streamed:
            rows = [line.split(",") for line in
                    out.read_text().splitlines()[1:]]
            t = [float(r[0]) for r in rows]
            cycle = [int(r[2]) for r in rows]
        else:
            t, cycle = run.t.tolist(), run.cycle.tolist()
        assert t[6] == 1.7999999999999998
        assert cycle == [min(step // 6 + 1, 2) for step in range(13)]
        assert [(s.cycle, s.t) for s in snaps] == [(1, 3 * 0.3), (2, 9 * 0.3)]

    def test_grid_alignment_checked(self):
        field = zero_field(8)
        sched = sin_squared_schedule(1.0)
        initial = make_state(_point(8, seed=11), sched)
        with pytest.raises(GridAlignmentError):
            run_cycles(field, sched, initial, n_cycles=1, dt=0.3)

    def test_start_state_must_be_at_t_zero(self):
        # the march runs from t = 0 and would ignore any other start time
        field = tanh_field(8, 0.5)
        sched = sin_squared_schedule(1.0)
        initial = make_state(_point(8, seed=11), sched, t=0.37)
        with pytest.raises(ValueError, match="t = 0.37"):
            run_cycles(field, sched, initial, n_cycles=1, dt=0.1)

    def test_equilibrium_h_vanishes_with_generic_momentum(self):
        field = tanh_field(16, 0.9)
        sched = sin_squared_schedule(1.0)
        initial = make_state(_point(16, seed=12), sched)
        _, snaps = run_cycles(field, sched, initial, n_cycles=3, dt=0.01)
        for s in snaps:
            assert abs(s.h_value) <= 1e-9 * (1 + np.linalg.norm(s.point.p))

    @pytest.mark.parametrize("stride, streamed", [(1, False), (7, False),
                                                  (1, True), (7, True)],
                             ids=["1", "7", "1-csv", "7-csv"])
    def test_blow_up_reports_grid_step(self, stride, streamed, tmp_path):
        # the period keeps the first equilibrium instant (step 100) beyond
        # the blow-up; a stride that skips step 40 reports it all the same,
        # and a streamed march leaves neither its CSV nor the temp file
        field = linear_field(200.0 * np.eye(8))
        sched = constant_schedule(100.0, 0.0)
        initial = make_state(_point(8, seed=6), sched)
        csv_path = tmp_path / "trajectory.csv" if streamed else None
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as err:
                run_cycles(field, sched, initial, n_cycles=1, dt=1.0,
                           stride=stride, csv_path=csv_path)
        assert (err.value.step_index, err.value.t) == (40, 40.0)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("stride, p_scale", [(4, 1.0), (3, 1.0), (3, 0.0)],
                             ids=["4", "3", "3-zero-momentum"])
    def test_stride_stores_every_stride_th_row(self, stride, p_scale,
                                               tmp_path):
        # 800 steps: 4 divides the step count, 3 does not; a zero momentum
        # takes the u-only march
        field = tanh_field(16, 0.9)
        sched = sin_squared_schedule(1.0)
        initial = make_state(_point(16, seed=19, p_scale=p_scale), sched)
        full, snaps = run_cycles(field, sched, initial, n_cycles=2, dt=0.005)
        part, part_snaps = run_cycles(field, sched, initial, n_cycles=2,
                                      dt=0.005, stride=stride)
        for name in ("t", "tau", "cycle", "u", "p", "h"):
            assert np.array_equal(getattr(part, name),
                                  getattr(full, name)[::stride]), name
        assert (part.n_steps, part.final_h) == (800, full.h[-1])
        assert (full.n_steps, full.final_h) == (800, full.h[-1])
        assert [(s.t, s.h_value) for s in part_snaps] == [
            (s.t, s.h_value) for s in snaps]
        for a, b in zip(part_snaps, snaps):
            assert np.array_equal(a.point.u, b.point.u)
            assert np.array_equal(a.point.p, b.point.p)
        # with no row stored, the summary alone; it checks G on fewer steps
        bare, bare_snaps = run_cycles(field, sched, initial, n_cycles=2,
                                      dt=0.005, store_trajectory=False)
        assert type(bare) is FlowSummary
        assert (bare.n_steps, bare.final_h) == (800, full.h[-1])
        assert 0.0 <= bare.max_invariant_drift <= full.max_invariant_drift
        assert [(s.t, s.h_value) for s in bare_snaps] == [
            (s.t, s.h_value) for s in snaps]

        # the streamed CSV holds the bytes of the in-memory rows, formatted
        # cell by cell from the arrays
        streamed = tmp_path / "trajectory.csv"
        run, run_snaps = run_cycles(field, sched, initial, n_cycles=2,
                                    dt=0.005, stride=stride,
                                    csv_path=streamed)
        reference = tmp_path / "reference.csv"
        header = (["t", "tau", "cycle"] + [f"u_{i}" for i in range(16)]
                  + [f"p_{i}" for i in range(16)] + ["H"])
        atomic_write_csv(reference, header, (
            [t, tau, int(c)] + list(u) + list(p) + [h] for t, tau, c, u, p, h
            in zip(part.t, part.tau, part.cycle, part.u, part.p, part.h)))
        assert streamed.read_bytes() == reference.read_bytes()
        assert run == FlowSummary(n_steps=800, final_h=part.final_h,
                                  max_invariant_drift=part.max_invariant_drift,
                                  randers_margin=part.randers_margin)
        assert [(s.t, s.h_value, s.point.u.tobytes(), s.point.p.tobytes())
                for s in run_snaps] == [
            (s.t, s.h_value, s.point.u.tobytes(), s.point.p.tobytes())
            for s in part_snaps]

    def test_csv_export_columns(self, tmp_path):
        field = tanh_field(8, 0.5)
        sched = sin_squared_schedule(1.0)
        initial = make_state(_point(8, seed=13), sched)
        out = tmp_path / "traj.csv"
        run, snaps = run_cycles(field, sched, initial, n_cycles=1, dt=0.1,
                                csv_path=out)
        header = out.read_text().splitlines()[0].split(",")
        assert header[:3] == ["t", "tau", "cycle"]
        assert header[3] == "u_0" and header[11] == "p_0" and header[-1] == "H"
        # the header, then steps 0..n_steps
        assert len(out.read_text().splitlines()) == run.n_steps + 2


def _tanh_snapshots_run_cycles(field, sched, u0, dt, n_cycles):
    pt = PhasePoint(u=u0, p=np.linspace(1.0, -1.0, u0.size),
                    n_molecules=u0.size // 8)
    _, snaps = run_cycles(field, sched, make_state(pt, sched), n_cycles, dt)
    return {s.cycle: s.point.u for s in snaps}


def _tanh_snapshots_evolve(field, sched, u0, dt, n_cycles):
    got = {}
    evolve_coordinates(u0.reshape(-1, 8).copy(), field, sched, dt, n_cycles,
                       lambda tau, u: got.__setitem__(tau, u.reshape(-1).copy()))
    del got[0]
    return got


class TestClosedFormFlow:
    # beta_i = a tanh(u_i) under kappa = sin^2(pi t / 2T): d/dt log sinh u
    # = a s(t) with s = |cos(pi t / 2T)|, so at t_n = (2n - 1) T
    # sinh u(t_n) = sinh u0 * exp(a (4n - 2) T / pi).
    @pytest.mark.parametrize("march", [_tanh_snapshots_run_cycles,
                                       _tanh_snapshots_evolve])
    def test_rk4_fourth_order_against_exact_tanh_flow(self, march):
        a, n_cycles = 0.9, 2
        field = tanh_field(8, a)
        sched = sin_squared_schedule(1.0)
        u0 = np.linspace(-1.5, 1.2, 8)

        def error(dt):
            got = march(field, sched, u0, dt, n_cycles)
            assert sorted(got) == [1, 2]
            return max(np.abs(u - np.arcsinh(
                np.sinh(u0) * math.exp(a * (4 * n - 2) / math.pi))).max()
                for n, u in got.items())

        ratio = error(0.05) / error(0.025)
        assert 12.0 <= ratio <= 20.0

    def test_componentwise_products_conserved_along_trajectory(self):
        # d/dt [beta_k(u) p_k] = s g' g p - s g g' p = 0 for componentwise
        # fields, so this checks the momentum path through the field's rate
        a = 0.8
        field = tanh_field(16, a)
        sched = sin_squared_schedule(1.0)
        initial = make_state(_point(16, seed=18), sched)
        traj, _ = run_cycles(field, sched, initial, n_cycles=2, dt=0.01)
        prod = a * np.tanh(traj.u) * traj.p
        assert np.abs(prod - prod[0]).max() <= 1e-9


def _read_only(fn):
    """fn with its result array made read-only."""
    def wrapped(*args):
        out = fn(*args)
        out.setflags(write=False)
        return out
    return wrapped


def _tanh_vjp(a):
    """J(u)^T p of a tanh field of amplitude a, in the expression form."""
    def vjp(u, p):
        t = np.tanh(u)
        return a * (1.0 - t * t) * p
    return vjp


def _zero_vjp(u, p):
    return np.zeros_like(p)


def _matrix_vjp(a):
    return lambda u, p: a.T @ p


class TestBufferedMarch:
    @pytest.mark.parametrize("field", [tanh_field(8, 0.9),
                                       constant_field(-0.4, 8), zero_field(8)],
                             ids=["tanh", "constant", "zero"])
    def test_positions_step_equals_the_expression_form(self, field):
        # The march reuses its two stage buffers, and the in-place
        # scalar_map overwrites them; each step of a positions array must
        # equal the expression on fresh arrays, built from the pure beta,
        # byte for byte.  A second march takes beta with read-only results
        # as its rate, so a march writing into a returned array raises.
        # Signed zeros, subnormals and saturated tanh arguments make the
        # slopes zero, subnormal or +-a.
        sched = sin_squared_schedule(1.0)
        speed_at = lambda t: speed(sched, t)
        dt, h = 0.1, 0.05
        special = [0.0, -0.0, 5e-324, -1e-310, 30.0, -30.0, 700.0, -700.0]
        u0 = np.concatenate((np.random.default_rng(23).normal(size=60),
                             special)).reshape(4, 17)
        u, v, want = u0.copy(), u0.copy(), u0.copy()
        beta = field.beta
        marches = zip(rk4_march(field.scalar_map, u, dt, 23, speed_at),
                      rk4_march(_read_only(beta), v, dt, 23, speed_at))
        steps = []
        for k, k_v in marches:
            assert k == k_v
            steps.append(k)
            t = (k - 1) * dt
            s1, s2, s4 = speed_at(t), speed_at(t + h), speed_at(t + dt)
            k1 = s1 * beta(want)
            k2 = s2 * beta(want + h * k1)
            k3 = s2 * beta(want + h * k2)
            k4 = s4 * beta(want + dt * k3)
            want += (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            assert u.tobytes() == want.tobytes(), k
            assert v.tobytes() == want.tobytes(), k
        # a full march yields the grid index reached after each step
        assert steps == list(range(1, 24))

    @pytest.mark.parametrize("field, vjp", [
        (tanh_field(8, 0.9), _tanh_vjp(0.9)),
        (tanh_field(8, -0.9), _tanh_vjp(-0.9)),
        (constant_field(-0.4, 8), _zero_vjp),
        (zero_field(8), _zero_vjp),
        (linear_field(_stable_matrix(8)), _matrix_vjp(_stable_matrix(8)))],
        ids=["tanh", "tanh-negative", "constant", "zero", "linear"])
    def test_phase_step_equals_the_expression_form(self, field, vjp):
        # The phase march advances (u, p) as one stacked array by the
        # field's in-place rate; each step must equal the expression form
        # on separate fresh u and p arrays, from the pure beta and the
        # former vjp formulas, byte for byte, signs of zeros included.
        # Signed zeros, a subnormal and saturated tanh arguments make the
        # slopes zero, subnormal or +-a; at saturation 1 - t^2 is +0.0, so
        # a zero momentum there keeps the sign the expression gives it
        # (a (1 - t^2) is -0.0 for a < 0).  The march calls the rate once
        # per stage on one (2, dim) phase point.
        rate_calls = []

        def counted(z):
            rate_calls.append(z.shape)
            return field.rate(z)

        sched = sin_squared_schedule(1.0)
        speed_at = lambda t: speed(sched, t)
        dt, h = 0.1, 0.05
        y = np.random.default_rng(29).normal(size=(2, 8))
        y[:, 2:] = [[0.0, -0.0, 5e-324, 30.0, -30.0, 30.0],
                    [-0.0, 0.0, -5e-324, -30.0, -0.0, 0.0]]
        u, p = y[0].copy(), y[1].copy()
        march = _phase_march(dataclasses.replace(field, rate=counted), y, dt,
                             23, speed_at)
        beta = field.beta
        for k in march:
            assert rate_calls == [(2, 8)] * (4 * k), k
            t = (k - 1) * dt
            s1, s2, s4 = speed_at(t), speed_at(t + h), speed_at(t + dt)
            k1 = s1 * beta(u)
            m1 = -s1 * vjp(u, p)
            u2 = u + h * k1
            k2 = s2 * beta(u2)
            m2 = -s2 * vjp(u2, p + h * m1)
            u3 = u + h * k2
            k3 = s2 * beta(u3)
            m3 = -s2 * vjp(u3, p + h * m2)
            u4 = u + dt * k3
            k4 = s4 * beta(u4)
            m4 = -s4 * vjp(u4, p + dt * m3)
            p += (dt / 6) * (m1 + 2 * m2 + 2 * m3 + m4)
            u += (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            assert y[0].tobytes() == u.tobytes(), k
            assert y[1].tobytes() == p.tobytes(), k
        assert k == 23

    def test_march_holds_two_stage_buffers(self):
        # Over 20 steps of a 2^16-coordinate march with the in-place drift,
        # the march allocates its slope sum and stage point and no drift
        # result: the traced peak stays below three arrays of y's size (a
        # kernel with three stage buffers and a fresh drift array needs
        # four).
        field = tanh_field(8, 0.9)
        sched = sin_squared_schedule(1.0)
        u = np.random.default_rng(37).normal(size=2**16)
        u0 = u.copy()
        tracemalloc.start()
        try:
            for k in rk4_march(field.scalar_map, u, 0.1, 20,
                               lambda t: speed(sched, t)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k == 20 and not np.array_equal(u, u0)
        assert 2 * u.nbytes <= peak < 3 * u.nbytes

    def test_zero_momentum_keeps_its_bytes(self):
        # 0.0 * normal holds -0.0 entries.  A zero momentum stays zero under
        # the flow and is not marched, so every p that run_cycles and
        # step_flow return has its bytes; np.array_equal cannot see the
        # sign of zero.
        field = tanh_field(16, 0.9)
        sched = sin_squared_schedule(1.0)
        state = make_state(_point(16, seed=31, p_scale=0.0), sched)
        p0 = state.point.p.tobytes()
        assert np.signbit(state.point.p).any()
        traj, snaps = run_cycles(field, sched, state, n_cycles=2, dt=0.05)
        nxt = step_flow(field, sched, state, dt=0.05)
        for p in [*traj.p, *(s.point.p for s in snaps), nxt.point.p]:
            assert p.tobytes() == p0


class TestConservationAndLinearity:
    def test_frozen_kappa_conserves_hamiltonian(self):
        field = tanh_field(16, 0.9)
        sched = constant_schedule(1.0, 0.3)
        state = make_state(_point(16, seed=14), sched)
        h0 = hamiltonian(field, sched, state)
        p0_norm = np.linalg.norm(state.point.p)
        for _ in range(2000):
            state = step_flow(field, sched, state, dt=1e-3)
        h1 = hamiltonian(field, sched, state)
        assert abs(h1 - h0) <= 1e-6 * (1.0 + p0_norm)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_momentum_flow_is_linear(self, seed):
        dim = 16
        field = tanh_field(dim, 0.8)
        sched = sin_squared_schedule(1.0)
        rng = np.random.default_rng(seed)
        u0 = rng.normal(size=dim)
        p1 = rng.normal(size=dim)
        p2 = rng.normal(size=dim)

        def flow(p_init):
            st_ = make_state(PhasePoint(u=u0.copy(), p=p_init, n_molecules=2), sched)
            for _ in range(20):
                st_ = step_flow(field, sched, st_, dt=0.01)
            return st_.point.p

        lhs = flow(p1 + p2)
        rhs = flow(p1) + flow(p2) - flow(np.zeros(dim))
        assert np.allclose(lhs, rhs, atol=1e-9)
        assert np.array_equal(flow(np.zeros(dim)), np.zeros(dim))


class TestReparameterization:
    def test_internal_time_tracks_map_for_frozen_kappa(self):
        # for constant kappa the incremental bookkeeping matches the
        # algebraic map t_tilde = t (1 - kappa)
        field = tanh_field(8, 0.5)
        sched = constant_schedule(1.0, 0.25)
        state = make_state(_point(8, seed=15), sched)
        for _ in range(50):
            state = step_flow(field, sched, state, dt=0.01)
        assert state.t_tilde == pytest.approx(state.t * 0.75, rel=1e-12)

    def test_differential_relation_near_homogeneity_instants(self):
        # dt_tilde = (1 - kappa) dt holds step by step where kappa is
        # stationary and small
        field = tanh_field(8, 0.5)
        sched = sin_squared_schedule(1.0)
        dt = 1e-4
        for t in [2.0, 4.0]:
            state = make_state(_point(8, seed=16), sched, t=t)
            nxt = step_flow(field, sched, state, dt=dt)
            rate = (nxt.t_tilde - state.t_tilde) / dt
            assert rate == pytest.approx(1.0 - sched.kappa(t), abs=1e-6)
