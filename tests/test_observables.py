import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randerslab.dynamics import (CycleSchedule, ScheduleError,
                                 equilibrium_cycle, make_state, rk4_march,
                                 run_cycles, sin_squared_schedule, speed)
from randerslab import observables, runio
from randerslab.concentration import in_threads
from randerslab.geometry import PhasePoint, constant_field, tanh_field, zero_field
from randerslab.observables import (
    BLOCK_ELEMS,
    CHUNK_ELEMS,
    SYSTEMS,
    FlowParams,
    Preparation,
    WepConfig,
    _continue_sum,
    center_of_mass,
    evolve_coordinates,
    mean_guide,
    scale_relation_check,
    wep_experiment,
)
from randerslab.runio import derive_rng, derive_seed_sequence


# molecules per row block of Preparation.draw_positions
ROWS = BLOCK_ELEMS // 8


def _prep(seed=0, mean=0.0, scale=1.0):
    return Preparation(mean=mean, covariance=scale**2 * np.eye(8), seed=seed)


def _wep_config(field, n_list, n_trials, n_cycles=2, dt=0.1, seed=100,
                rho_grid=None, n_reference=20_000):
    return WepConfig(
        n_list=n_list, n_trials=n_trials,
        flow=FlowParams(field=field, period_T=1.0, dt=dt),
        preparation=_prep(seed=seed), n_cycles=n_cycles,
        rho_grid=np.linspace(0.25, 6.0, 24) if rho_grid is None else rho_grid,
        seed=seed, n_reference=n_reference)


class TestCenterOfMass:
    def test_all_molecules_at_same_point(self):
        n = 10
        block = np.array([1.0, -2.0, 0.5, 3.0, 9, 9, 9, 9])
        x = center_of_mass(np.tile(block, (n, 1)))
        assert np.allclose(x, block[:4])

    def test_antipodal_pair_averages_to_zero(self):
        block = np.arange(8.0)
        blocks = np.stack([block, -block])
        assert np.array_equal(center_of_mass(blocks), np.zeros(4))

    def test_clt_accuracy_of_sample_mean(self):
        n = 1000
        mean = np.array([0.5, -1.0, 2.0, 0.0, 0, 0, 0, 0])
        prep = Preparation(mean=mean, covariance=np.eye(8), seed=3)
        x = center_of_mass(prep.draw(n, derive_rng(2, "t")))
        assert np.all(np.abs(x - mean[:4]) < 4.0 / math.sqrt(n))

    def test_embedding_consistency(self):
        n = 257
        blocks = _prep(seed=5).draw(n, derive_rng(3, "t"))
        xa = center_of_mass(blocks[:100])
        xb = center_of_mass(blocks[100:])
        xs = center_of_mass(blocks)
        combined = (100 * xa + 157 * xb) / n
        assert np.allclose(xs, combined, rtol=1e-13, atol=1e-13)

    def test_velocity_blocks_never_enter(self):
        n = 4
        rng = np.random.default_rng(9)
        blocks = rng.normal(size=(n, 8))
        blocks2 = blocks.copy()
        blocks2[:, 4:] = 99.0
        assert np.array_equal(center_of_mass(blocks), center_of_mass(blocks2))

    def test_tags_must_be_nonempty(self):
        # N = 1 leaves subsystem B empty
        with pytest.raises(ValueError):
            _wep_config(zero_field(8), [1], 2)

    def test_one_trial_is_rejected(self):
        # sigma_x, the spread over trials, would be 0
        with pytest.raises(ValueError, match="n_trials"):
            _wep_config(zero_field(8), [10], 1)

    @pytest.mark.parametrize("n_list", [[1024, 256, 64, 16], [16, 16, 64]])
    def test_sizes_must_ascend(self, n_list):
        # the monotonicity count reads the sizes in list order
        with pytest.raises(ValueError, match="ascending"):
            _wep_config(zero_field(8), n_list, 2)


class TestBatchedEvolution:
    def test_matches_flow_integrator_on_componentwise_field(self):
        field = tanh_field(16, 0.9)
        sched = sin_squared_schedule(1.0)
        rng = np.random.default_rng(17)
        u0 = rng.normal(size=16)
        pt = PhasePoint(u=u0.copy(), p=np.zeros(16), n_molecules=2)
        traj, snaps = run_cycles(field, sched, make_state(pt, sched),
                                 n_cycles=2, dt=0.05)
        got = {}
        evolve_coordinates(u0.reshape(2, 8), field, sched, 0.05, 2,
                           lambda tau, u: got.__setitem__(tau, u.copy()))
        for s in snaps:
            assert np.allclose(got[s.cycle].reshape(-1), s.point.u, atol=1e-12)

    def test_blocked_march_equals_one_whole_march(self):
        # Every snapshot must equal, bit for bit, that of one march of the
        # whole array on the global grid: for one coordinate, two, three
        # full slices and a partial one, and the positions view of
        # (trials, N, 8) draws.
        field = tanh_field(8, 0.9)
        sched = sin_squared_schedule(1.0)
        dt, n_cycles, steps_per_T = 0.1, 3, 10
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=1), rng.normal(size=2),
                  rng.normal(size=3 * CHUNK_ELEMS + 17),
                  rng.normal(size=(7, 1500, 8))[..., :4]]
        for u0 in arrays:
            want = {0: u0.copy()}
            u = u0.copy()
            for step in rk4_march(field.scalar_map, u, dt,
                                  (2 * n_cycles - 1) * steps_per_T,
                                  lambda t: speed(sched, t)):
                n = equilibrium_cycle(step, steps_per_T)
                if n:
                    want[n] = u.copy()
            got = {}
            # a contiguous input is marched in place; the strided view is
            # converted, and so left as it is
            evolve_coordinates(u0, field, sched, dt, n_cycles,
                               lambda tau, u: got.__setitem__(tau, u.copy()))
            assert sorted(got) == list(range(n_cycles + 1))
            for n in got:
                assert np.array_equal(got[n], want[n]), (u0.shape, n)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_continued_sum_equals_one_reduce_of_the_joined_rows(self, data):
        # Rows of a chunk view (k ensembles, m rows from some offset) with
        # magnitudes over 40 binades, so any other order of the additions
        # shows in the last bits, and now and then an inf, a NaN or -0.0.
        k = data.draw(st.integers(1, 4), label="ensembles")
        m = data.draw(st.integers(1, 3000), label="rows")
        skip = data.draw(st.integers(0, 5), label="offset")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        buf = rng.normal(size=(k, skip + m + 3, 4))
        buf *= 2.0 ** rng.integers(-20, 21, size=buf.shape)
        special = data.draw(st.sampled_from(
            [None, np.inf, -np.inf, np.nan, -0.0]), label="special")
        if special is not None:
            buf.reshape(-1)[rng.integers(buf.size, size=3)] = special
        rows = buf[:, skip:skip + m]
        before = buf.copy()
        total = rng.normal(size=(k, 4)) * 2.0 ** 20
        with np.errstate(invalid="ignore"):  # inf + -inf
            want = np.add.reduce(np.concatenate((total[:, None], rows),
                                                axis=1), axis=1)
            want_fresh = np.add.reduce(rows, axis=1)
            got = np.empty((k, 4))
            _continue_sum(total, rows, got)
            fresh = np.empty((k, 4))
            _continue_sum(None, rows, fresh)
            _continue_sum(total, rows, total)  # the sum continued in place
        for a, b in ((got, want), (total, want), (fresh, want_fresh)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        # the rows are as they were, bit for bit
        assert np.array_equal(buf.view(np.uint64), before.view(np.uint64))

    def test_wep_arrays_do_not_depend_on_worker_count(self, monkeypatch):
        # The guide and the groups of trials (three sizes) run on a pool of
        # one, two or three workers, at four chunk sizes; every x_obs and
        # guide row must equal, bit for bit, the centers of mass of one
        # whole march of that ensemble alone.
        field = tanh_field(8, 0.9)
        n_list, n_trials, n_cycles, n_reference = [16, 300, 5000], 5, 2, 20_000
        config = _wep_config(field, n_list, n_trials, n_cycles=n_cycles,
                             n_reference=n_reference)
        sched = sin_squared_schedule(1.0)
        steps_per_T = 10

        def whole_march(n, rng):
            u = config.preparation.draw(n, rng)[:, :4].copy()
            m = [np.stack([center_of_mass(u[:n // 2]),
                           center_of_mass(u[n // 2:]), center_of_mass(u)])]
            for step in rk4_march(field.scalar_map, u, config.flow.dt,
                                  (2 * n_cycles - 1) * steps_per_T,
                                  lambda t: speed(sched, t)):
                if equilibrium_cycle(step, steps_per_T):
                    m.append(np.stack([center_of_mass(u[:n // 2]),
                                       center_of_mass(u[n // 2:]),
                                       center_of_mass(u)]))
            return np.stack(m)

        guide = whole_march(n_reference, derive_rng(
            config.seed, "mean-guide", config.preparation.seed))[:, 2]
        x_obs = {n: np.stack([whole_march(n, derive_rng(
                     config.seed, f"wep-N{n}-trial", k))
                     for k in range(n_trials)])
                 for n in n_list}
        # (molecules per draw block, per chunk): chunks of 600 put the A/B
        # boundary 2500 of N = 5000 inside a chunk, group N = 300 in twos
        # and cut the guide into 34 chunks; chunks of 2500 put that
        # boundary on a chunk edge and cut the guide into 8 full chunks;
        # chunks of 3 * ROWS = 12288, the program's own, hold every trial
        # and continue the guide's sums over 7712 rows of a second chunk;
        # in chunks of 20480 every ensemble, the guide's too, fits in one
        chunkings = [(300, 600), (500, 2500), (ROWS, 3 * ROWS),
                     (ROWS, 5 * ROWS)]
        # more threads than cores, switching as often as the interpreter can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for block_rows, chunk_rows in chunkings:
                monkeypatch.setattr(observables, "BLOCK_ELEMS", 8 * block_rows)
                monkeypatch.setattr(observables, "CHUNK_ELEMS", 4 * chunk_rows)
                for workers in (1, 2, 3):
                    monkeypatch.setattr(runio, "usable_cores",
                                        lambda: workers)
                    report = wep_experiment(config)
                    assert np.array_equal(report.guide, guide), (
                        chunk_rows, workers)
                    for n in n_list:
                        assert np.array_equal(report.per_size[n].x_obs,
                                              x_obs[n]), (chunk_rows,
                                                          workers, n)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_error_is_raised_and_no_thread_remains(self, monkeypatch,
                                                          workers):
        # The first ``workers`` tasks meet at a barrier, so each holds its
        # own worker.  Then task 1 fails, task 0 fails after it, and tasks
        # 2.. wait until they see a failure: task 0's error is raised and
        # no further task starts.
        met = threading.Barrier(workers)
        task_1_failed = threading.Event()
        started = {}

        def work(k, stop):
            started[k] = threading.current_thread()
            met.wait(10)
            if k == 0:
                assert task_1_failed.wait(10)
                raise RuntimeError("task 0")
            if k == 1:
                task_1_failed.set()
                raise RuntimeError("task 1")
            deadline = time.monotonic() + 10
            while not stop():
                assert time.monotonic() < deadline
                time.sleep(1e-3)

        monkeypatch.setattr(runio, "usable_cores", lambda: workers)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="task 0"):
            in_threads(work, 8)
        assert sorted(started) == list(range(workers))
        assert len(set(started.values())) == workers
        assert threading.main_thread() in started.values()
        assert set(threading.enumerate()) == before

        # a failing trial chunk of the WEP run: its error is raised from
        # the pool, and no thread remains either
        field = tanh_field(8, 0.9)

        def drift(x):
            if x.size == 3 * 4 * 300:  # the one chunk of N = 300
                raise RuntimeError("bad chunk")
            return field.scalar_map(x)

        config = _wep_config(dataclasses.replace(field, scalar_map=drift),
                             [16, 300], 3, n_reference=1000)
        with pytest.raises(RuntimeError, match="bad chunk"):
            wep_experiment(config)
        assert set(threading.enumerate()) == before

    def test_kappa_outside_unit_interval_raises(self):
        field = tanh_field(8, 0.9)
        sched = CycleSchedule(
            period_T=1.0,
            kappa=lambda t: 1.2 * math.sin(math.pi * t / 2.0) ** 2)
        with pytest.raises(ScheduleError):
            evolve_coordinates(np.zeros((1, 8)), field, sched, 0.1, 1,
                               lambda tau, u: None)

    def test_requires_componentwise_field(self):
        from randerslab.geometry import linear_field
        field = linear_field(-0.5 * np.eye(8))
        sched = sin_squared_schedule(1.0)
        with pytest.raises(ValueError):
            evolve_coordinates(np.zeros((1, 8)), field, sched, 0.1, 1,
                               lambda tau, u: None)


class TestMeanGuide:
    def test_static_for_zero_field(self):
        prep = Preparation(mean=np.arange(8.0), covariance=np.eye(8), seed=1)
        flow = FlowParams(field=zero_field(8), period_T=1.0, dt=0.1)
        m = mean_guide(prep, flow, n_cycles=3, n_reference=20_000, seed=0)
        assert m.shape == (4, 4)
        for row in m[1:]:
            assert np.array_equal(row, m[0])
        assert np.all(np.abs(m[0] - np.arange(4.0)) < 4.0 / math.sqrt(20_000))

    def test_constant_drift_advances_linearly(self):
        c = 0.25
        prep = _prep(seed=2)
        flow = FlowParams(field=constant_field(c, 8), period_T=1.0, dt=0.02)
        m = mean_guide(prep, flow, n_cycles=4, n_reference=5000, seed=1)
        increments = np.diff(m, axis=0)
        # half a cycle elapses before the first equilibrium instant, one
        # full cycle between consecutive ones; the speed factor integrates
        # to 2T/pi and 4T/pi respectively
        assert np.allclose(increments[0], c * 2.0 / math.pi, atol=1e-6)
        assert np.allclose(increments[1:], c * 4.0 / math.pi, atol=1e-6)
        assert np.allclose(increments[1:] - increments[1], 0.0, atol=1e-9)

    def test_traced_peak_is_below_eight_doubles_per_molecule(self,
                                                             traced_peak):
        # The reference positions, marched in place, take 4 doubles per
        # molecule; a copy of them would take 4 more.
        prep = _prep(seed=3)
        flow = FlowParams(field=tanh_field(8, 0.9), period_T=1.0, dt=0.1)
        n_ref = 200_000
        peak = traced_peak(lambda: mean_guide(prep, flow, n_cycles=1,
                                              n_reference=n_ref, seed=10))
        assert peak < 8 * 8 * n_ref, peak / (8 * n_ref)

    def test_traced_peak_does_not_grow_with_the_ensembles(self, monkeypatch,
                                                          traced_peak):
        # One worker holds one chunk of positions and, while it marches,
        # the chunk's two RK4 stage arrays, or, while it draws, one row
        # block; at an instant the running sums take a few rows more (16
        # KiB of slack with the small arrays).  A copy of a chunk's rows
        # would exceed the bound.  The same bound holds for a guide of 2e5
        # or 8e5 molecules and for two trials of 1e5.
        monkeypatch.setattr(runio, "usable_cores", lambda: 1)
        bound = 3 * 8 * CHUNK_ELEMS + 8 * BLOCK_ELEMS + 2**14
        prep = _prep(seed=3)
        flow = FlowParams(field=tanh_field(8, 0.9), period_T=1.0, dt=0.1)
        for n_ref in (200_000, 800_000):
            peak = traced_peak(lambda: mean_guide(prep, flow, n_cycles=1,
                                                  n_reference=n_ref, seed=10))
            assert peak < bound, (n_ref, peak / (8 * CHUNK_ELEMS))
        config = _wep_config(tanh_field(8, 0.9), [100_000], 2, n_cycles=1,
                             n_reference=1000)
        peak = traced_peak(lambda: wep_experiment(config))
        assert peak < bound, peak / (8 * CHUNK_ELEMS)

    def test_split_sample_agreement(self):
        prep = _prep(seed=3)
        flow = FlowParams(field=tanh_field(8, 0.9), period_T=1.0, dt=0.1)
        n_ref = 20_000
        m1 = mean_guide(prep, flow, n_cycles=2, n_reference=n_ref, seed=10)
        m2 = mean_guide(prep, flow, n_cycles=2, n_reference=n_ref, seed=11)
        # positions spread stays O(1); split estimates agree to CLT accuracy
        sigma_hat = 3.0
        assert np.all(np.abs(m1 - m2) < 4.0 * sigma_hat / math.sqrt(n_ref))


class TestWepExperiment:
    def test_zero_field_deviation_is_pure_sampling_noise(self):
        config = _wep_config(zero_field(8), [40], 10, n_cycles=3,
                             n_reference=2000)
        report = wep_experiment(config)
        res = report.per_size[40]
        # no dynamics: D_AB frozen at its initial value for every tau
        for trial in range(10):
            assert np.allclose(res.d_ab[trial], res.d_ab[trial, 0], atol=1e-14)

    def test_quadrupling_n_halves_separation_median(self):
        config1 = _wep_config(zero_field(8), [64, 256], 150, n_cycles=1,
                              n_reference=1000, seed=42)
        report = wep_experiment(config1)
        m_small = report.per_size[64].median_sup_d_ab
        m_large = report.per_size[256].median_sup_d_ab
        assert 1.5 <= m_small / m_large <= 2.5

    def test_tanh_field_monotone_and_fitted(self):
        config = _wep_config(tanh_field(8, 0.9), [30, 120, 480], 40,
                             n_cycles=2, seed=7, n_reference=20_000)
        report = wep_experiment(config)
        assert report.monotonic_ok
        meds = [m for _, m in report.monotonicity]
        assert meds[0] > meds[-1]
        for n in config.n_list:
            prof = report.per_size[n].profiles["S"]
            if prof.fit is not None:
                assert prof.fit.C2_hat > 0.0
            assert report.per_size[n].x_step_max_ratio <= 0.9 * (1 + 1e-6)

    def test_observable_trajectory_accessor(self):
        config = _wep_config(tanh_field(8, 0.9), [20], 5, n_cycles=2,
                             n_reference=1000)
        report = wep_experiment(config)
        res = report.per_size[20]
        x_a = res.x_obs[3, :, SYSTEMS.index("A")]
        assert x_a.shape == (3, 4)
        step_ratio = np.abs(np.diff(x_a, axis=0)).max() / 1.0
        assert step_ratio <= 0.9 * (1 + 1e-6)
        assert step_ratio <= res.x_step_max_ratio

    def test_draws_only_the_guide_and_the_trials(self, monkeypatch):
        calls = []
        draw = Preparation.draw

        def counted(self, n, rng):
            calls.append((rng, n))
            return draw(self, n, rng)

        monkeypatch.setattr(Preparation, "draw", counted)
        n_list, n_trials, n_reference = [16, ROWS + 3], 3, 2 * ROWS + 5
        config = _wep_config(zero_field(8), n_list, n_trials, n_cycles=1,
                             n_reference=n_reference)
        wep_experiment(config)
        # in chunks of one row block, the guide spans three chunks and each
        # trial of the larger N two: the draw calls stay the same
        monkeypatch.setattr(observables, "CHUNK_ELEMS", 4 * ROWS)
        wep_experiment(config)

        # The pool's tasks draw at the same time, so the calls of different
        # streams interleave; each stream is one generator, drawn in order.
        drawn = {}
        for rng, n in calls:
            entropy = tuple(rng.bit_generator.seed_seq.entropy)
            drawn.setdefault(entropy, []).append(n)

        def stream(tag, index):
            return tuple(derive_seed_sequence(config.seed, tag, index).entropy)

        def row_blocks(total):
            return [ROWS] * (total // ROWS) + [total % ROWS] * (total % ROWS > 0)

        # the guide and each trial of each size, in row blocks of ROWS
        # molecules, and nothing else, in both runs
        want = {stream("mean-guide", config.preparation.seed):
                2 * row_blocks(n_reference)}
        for n in n_list:
            for k in range(n_trials):
                want[stream(f"wep-N{n}-trial", k)] = 2 * row_blocks(n)
        assert drawn == want

    def test_marches_only_positions_up_to_the_last_instant(self):
        # Only the positions [..., :4] are read, and nothing after the last
        # equilibrium instant t = (2 n_cycles - 1) T.
        field = tanh_field(8, 0.9)
        seen = []

        def counted(x):
            seen.append(x.size)
            return field.scalar_map(x)

        n_list, n_trials, n_cycles, n_reference = [6, 11], 3, 2, 50
        config = _wep_config(dataclasses.replace(field, scalar_map=counted),
                             n_list, n_trials, n_cycles=n_cycles, dt=0.25,
                             n_reference=n_reference)
        wep_experiment(config)
        steps = (2 * n_cycles - 1) * 4
        assert sum(seen) == (4 * 4 * (n_reference + n_trials * sum(n_list))
                             * steps)

    def test_x_obs_are_centers_of_mass_of_the_seeded_draws(self):
        # the guide and the larger N span several row blocks and a partial
        # one; their positions equal those of one whole draw bit for bit
        n_list, n_trials, n_reference = [16, ROWS + 33], 3, 2 * ROWS + 500
        config = _wep_config(zero_field(8), n_list, n_trials, n_cycles=1,
                             n_reference=n_reference)
        report = wep_experiment(config)
        for n in n_list:
            for k in range(n_trials):
                u = config.preparation.draw(
                    n, derive_rng(config.seed, f"wep-N{n}-trial", k))
                want = np.stack([center_of_mass(u[:n // 2]),
                                 center_of_mass(u[n // 2:]),
                                 center_of_mass(u)])
                assert np.array_equal(report.per_size[n].x_obs[k, 0], want)
        reference = config.preparation.draw(
            n_reference,
            derive_rng(config.seed, "mean-guide", config.preparation.seed))
        assert np.array_equal(report.guide[0], center_of_mass(reference))

    def test_part_means_do_not_depend_on_the_order_of_the_parts(self):
        # S is listed before A, which begins where S does; the ensemble
        # spans two chunks, and the parts start in either one.  Each mean
        # is the center of mass of the part's own rows, bit for bit.
        rows = CHUNK_ELEMS // 4
        n_mol = rows + 33
        parts = [(0, n_mol), (n_mol // 2, n_mol), (0, n_mol // 2), (5, 9),
                 (rows + 1, n_mol)]
        flow = FlowParams(field=zero_field(8), period_T=1.0, dt=0.5)
        out = np.empty((1, 2, len(parts), 4))
        observables._march_means(_prep(seed=3), flow, 1,
                                 [derive_rng(3, "parts")], n_mol, parts, out)
        u = _prep(seed=3).draw(n_mol, derive_rng(3, "parts"))
        for j, (a, b) in enumerate(parts):
            for tau in (0, 1):
                assert np.array_equal(out[0, tau, j], center_of_mass(u[a:b]))


class TestScaleRelation:
    @staticmethod
    def _synthetic(decay):
        grid = np.linspace(0.001, 1.0, 2000)
        return {n: (grid, decay(n, grid)) for n in (16, 64, 256, 1024)}

    def test_linear_exponent_regime(self):
        tails = self._synthetic(lambda n, rho: np.exp(-n * rho ** 2))
        report = scale_relation_check(tails, threshold=0.01)
        assert report.exponent == pytest.approx(-0.5, abs=0.05)
        assert report.exponent_stderr < 0.01
        assert report.regime == "clt"
        assert report.threshold == 0.01
        # exp(-n rho^2) < 0.01 first at the grid point at or above the
        # root sqrt(ln 100 / n)
        grid = tails[16][0]
        assert report.rho_star == {
            n: grid[np.searchsorted(grid, math.sqrt(math.log(100) / n))]
            for n in (16, 64, 256, 1024)}

    def test_quadratic_exponent_regime(self):
        tails = self._synthetic(lambda n, rho: np.exp(-0.5 * n**2 * rho ** 2))
        report = scale_relation_check(tails, threshold=0.01)
        assert report.exponent == pytest.approx(-1.0, abs=0.05)
        assert report.exponent_stderr < 0.01
        assert report.regime == "quadratic-exponent"

    def test_insufficient_coverage_rejected(self):
        grid = np.linspace(0.01, 1.0, 100)
        tails = {16: (grid, np.exp(-16 * grid**2)),
                 64: (grid, np.exp(-64 * grid**2))}
        with pytest.raises(ValueError):
            scale_relation_check(tails, threshold=0.01)

    def test_zero_field_experiment_shows_clt_regime(self):
        # guide error must stay far below the X spread of the largest N,
        # so the reference ensemble is much larger than max(N)
        config = _wep_config(zero_field(8), [32, 128, 512, 2048], 80,
                             n_cycles=1, n_reference=400_000, seed=3)
        report = wep_experiment(config)
        scaling = scale_relation_check(report)
        # without a threshold, ten expected exceedances over the trials
        assert scaling.threshold == 10 / 80
        assert scaling.exponent == pytest.approx(-0.5, abs=0.15)
        assert scaling.regime == "clt"


class TestEnsembleInvariants:
    def test_disjoint_union_structure(self):
        # N = 11 splits into N_A = 5 and N_B = 6; S is their disjoint union
        config = _wep_config(tanh_field(8, 0.9), [11], 4, n_cycles=2,
                             n_reference=500)
        x_obs = wep_experiment(config).per_size[11].x_obs
        x_a, x_b, x_s = (x_obs[:, :, SYSTEMS.index(t)] for t in "ABS")
        assert np.allclose(x_s, (5 * x_a + 6 * x_b) / 11,
                           rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 2])
    def test_block_draw_positions_equal_one_whole_draw(self, n):
        # diagonal covariance, as the CLI builds it
        prep = Preparation(mean=np.arange(8.0), covariance=2.25 * np.eye(8),
                           seed=0)
        out = np.empty((n, 4))
        got = prep.draw_positions(out, derive_rng(4, "t"))
        assert got is out
        assert np.array_equal(out, prep.draw(n, derive_rng(4, "t"))[:, :4])

    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1])
    def test_draw_equals_cholesky_multivariate_normal(self, n):
        # numpy's Cholesky draw is the reference, bit for bit
        mean = np.array([0.7, -3.0, 0.0, 1e3, -1e-3, 2.5, 0.0, -0.25])
        var = np.array([2.25, 1e-8, 1.0, 37.0, 0.5, 1e4, 3.0, 1e-3])
        prep = Preparation(mean=mean, covariance=np.diag(var), seed=0)
        want = derive_rng(4, "t").multivariate_normal(
            mean, np.diag(var), size=n, method="cholesky")
        assert prep.draw(n, derive_rng(4, "t")).tobytes() == want.tobytes()

    def test_iid_draws_reproducible(self):
        prep = _prep(seed=5)
        u1 = prep.draw(20, derive_rng(10, "t"))
        u2 = prep.draw(20, derive_rng(10, "t"))
        assert u1.shape == (20, 8)
        assert np.array_equal(u1, u2)

    def test_preparation_validates_covariance(self):
        off_diagonal = np.eye(8)
        off_diagonal[0, 1] = off_diagonal[1, 0] = 0.5
        nan = np.eye(8)
        nan[2, 2] = np.nan
        for cov in (off_diagonal, -np.eye(8), nan):
            with pytest.raises(ValueError, match="diagonal"):
                Preparation(mean=0.0, covariance=cov, seed=0)
