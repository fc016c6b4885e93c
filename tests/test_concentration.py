import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from randerslab import cli, concentration, runio
from randerslab.concentration import (
    DimensionError,
    EvaluationError,
    FitUnavailableError,
    MMSpaceSampler,
    _fit_tail,
    concentration_profile,
    fit_decay_constant,
    gaussian_tail_bound,
    median_in_place,
    median_stream_size,
    sphere,
    sphere_isoperimetric_check,
    sphere_neighborhood_bound,
    sphere_tail_bound,
    tail_profile_from_deviations,
)

first_coord = lambda x: x[:, 0]


def _gaussian(dim, seed, sigma=1.0):
    return MMSpaceSampler(kind="gaussian", dimension=dim, seed=seed,
                          sigma=sigma)


def _sphere_coordinate_z(prof, n_dim, sigma_f=1.0):
    """z-scores of the tail counts of |x_0 - median_hat| / sigma_f against
    the exact law on S^d: x_0^2 ~ Beta(1/2, d/2), so P(x_0 > c) =
    I_{1-c^2}(d/2, 1/2) / 2 for c >= 0, and x_0 is symmetric.  The median
    comes from an independent stream, so each count is binomial given it."""
    def above(c):
        upper = 0.5 * special.betainc(n_dim / 2, 0.5,
                                      np.clip(1.0 - c * c, 0.0, 1.0))
        return np.where(c >= 0, upper, 1.0 - upper)

    m, r, n = prof.median_hat, prof.rho_grid * sigma_f, prof.n_samples
    p = above(m + r) + above(r - m)
    return (prof.exceed_counts - n * p) / np.sqrt(n * p * (1.0 - p))


def _uniform(dim, seed):
    """Uniform coordinates in [-1, 2]."""
    return MMSpaceSampler(kind="product_uniform", dimension=dim, seed=seed,
                          bounds=(-1.0, 2.0))


class TestSamplers:
    def test_sphere_samples_have_unit_norm(self):
        x = sphere(64, 1).sample(5000)
        assert x.shape == (5000, 65)
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-12

    def test_sphere_coordinates_centered(self):
        n = 20_000
        x = sphere(16, 2).sample(n)
        assert np.max(np.abs(x.mean(axis=0))) < 4.0 / math.sqrt(n)

    def test_same_seed_reproduces_stream(self):
        a = sphere(8, 7).sample(100, stream=3)
        b = sphere(8, 7).sample(100, stream=3)
        assert np.array_equal(a, b)
        c = sphere(8, 7).sample(100, stream=4)
        assert not np.array_equal(a, c)

    def test_gaussian_and_uniform_shapes(self):
        assert _gaussian(5, 0, sigma=2.0).sample(10).shape == (10, 5)
        u = _uniform(3, 0).sample(1000)
        assert u.min() >= -1.0 and u.max() <= 2.0

    def test_sphere_needs_dimension_two(self):
        with pytest.raises(DimensionError):
            sphere(1, 0)


SAMPLERS = [sphere(16, 3), _gaussian(16, 3, sigma=1.7), _uniform(16, 3)]


def _one_shot(sampler, n, stream):
    """The sample drawn by one call per stream, as before row blocks."""
    rng = np.random.default_rng(np.random.SeedSequence([sampler.seed, stream]))
    if sampler.kind == "sphere":
        x = rng.standard_normal((n, sampler.width))
        return x / np.linalg.norm(x, axis=1, keepdims=True)
    if sampler.kind == "gaussian":
        return sampler.sigma * rng.standard_normal((n, sampler.width))
    return rng.uniform(*sampler.bounds, size=(n, sampler.width))


class TestRowBlocks:
    # on S^256 a block of 255 rows is squared 63 rows at a time, and the
    # last 3 rows of each block on their own
    @pytest.mark.parametrize(
        "sampler", SAMPLERS + [pytest.param(sphere(256, 3), id="sphere-257")],
        ids=lambda s: s.kind)
    def test_blocks_cross_into_the_same_stream(self, sampler):
        # five full blocks and a remainder
        n = 5 * (concentration.SAMPLE_CHUNK_ELEMS // sampler.width) + 17
        x = sampler.sample(n, stream=2)
        assert np.array_equal(x, _one_shot(sampler, n, 2))
        for name in ("coordinate", "norm", "coordinate_mean"):
            f = cli._observable({"name": name, "index": 3})
            assert np.array_equal(sampler.observe_streams(f, [(n, 2)])[0],
                                  f(x)), name

    def test_nonfinite_names_the_sample_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(concentration, "SAMPLE_CHUNK_ELEMS", 16)
        sampler = _gaussian(4, 5)
        bad = sampler.sample(50)[37]
        f = lambda x: np.where((x == bad).all(axis=1), np.nan, x[:, 0])
        with pytest.raises(EvaluationError, match="at sample 37$"):
            sampler.observe_streams(f, [(50, 0)])


OBSERVABLES = [cli._observable({"name": name, "index": 3})
               for name in ("coordinate", "norm", "coordinate_mean")]


class TestObserveStreams:
    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.kind)
    def test_each_stream_equals_its_sequential_draw(self, sampler):
        rows = concentration.SAMPLE_CHUNK_ELEMS // sampler.width
        # less than one block, and block multiples plus a remainder
        streams = [(rows // 3, 1), (2 * rows + 5, 2), (rows + 1, 4), (7, 9)]
        # more threads than cores, switching as often as the interpreter can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for f in OBSERVABLES:
                out = sampler.observe_streams(f, streams)
                for v, (n, stream) in zip(out, streams):
                    assert np.array_equal(v, f(_one_shot(sampler, n, stream)))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.kind)
    def test_profile_equals_sequential_reference(self, sampler, monkeypatch):
        """The deviations formed in place equal the expression form, and
        the counts of the sort in place those of a sorted copy."""
        seen = []

        def record(devs, *args, **kwargs):
            seen.append(devs.copy())
            return tail_profile_from_deviations(devs, *args, **kwargs)

        monkeypatch.setattr(concentration, "tail_profile_from_deviations",
                            record)
        grid = np.linspace(0.1, 2.0, 9)
        # within one block (150 and 3001 rows), and two full blocks and a
        # partial one
        for n in (150, 3001, 10_001):
            prof = concentration_profile(first_coord, sampler, grid, n,
                                         sigma_f=0.7)
            med = float(np.median(first_coord(
                sampler.sample(max(n // 2, 100), 1))))
            devs = np.abs(first_coord(sampler.sample(n, 2)) - med) / 0.7
            assert prof.median_hat == med
            assert np.array_equal(seen.pop(), devs)
            assert np.array_equal(prof.exceed_counts,
                                  n - np.searchsorted(np.sort(devs), grid,
                                                      side="right"))
            assert np.array_equal(prof.exceed_counts,
                                  np.sum(devs[:, None] > grid, axis=0))

    def test_sphere_check_equals_sequential_reference(self):
        # within one block, and two full blocks and a partial one; the
        # reference forms the clip, arccos, difference and maximum as four
        # temporaries
        s = sphere(16, 8)
        for n, grid in ((3001, [0.02, 0.1, 0.3]),
                        (10_001, np.linspace(0.0, 0.6, 25))):
            report = sphere_isoperimetric_check(16, grid, n, 8)
            med = float(np.median(first_coord(s.sample(n, 1))))
            theta = np.arccos(np.clip(first_coord(s.sample(n, 2)), -1, 1))
            dist = np.maximum(math.acos(med) - theta, 0.0)
            assert report.median_hat == med
            assert [r.empirical for r in report.rows] == [
                float((dist <= eps).mean()) for eps in grid]

    def test_one_usable_core_starts_no_thread(self, monkeypatch):
        streams = [(3001, 1), (2000, 2)]
        for sampler in SAMPLERS:
            monkeypatch.setattr(runio, "usable_cores", lambda: 2)
            two = sampler.observe_streams(first_coord, streams)
            monkeypatch.setattr(runio, "usable_cores", lambda: 1)
            with monkeypatch.context() as m:
                m.setattr(threading.Thread, "start",
                          lambda self: pytest.fail("a thread started"))
                one = sampler.observe_streams(first_coord, streams)
            for a, b in zip(one, two):
                assert np.array_equal(a, b), sampler.kind

    def test_first_stream_error_wins_and_no_thread_remains(self, monkeypatch):
        monkeypatch.setattr(concentration, "SAMPLE_CHUNK_ELEMS", 16)
        sampler = _gaussian(4, 5)
        # non-finite at a late row of stream 1 and the first row of stream 2,
        # which its thread reaches first
        bad = np.stack([sampler.sample(50, 1)[37], sampler.sample(50, 2)[0]])
        f = lambda x: np.where((x[:, None] == bad).all(axis=2).any(axis=1),
                               np.inf, x[:, 0])
        before = threading.active_count()
        with pytest.raises(EvaluationError) as sequential:
            sampler.observe_streams(f, [(50, 1)])
        cases = [([(50, 1), (50, 2)], str(sequential.value)),
                 # stream 1 stops short of its bad row
                 ([(30, 1), (50, 2)], "observable non-finite at sample 0"),
                 # stream 3 has no bad row and 5000 blocks still to go
                 ([(50, 1), (20_000, 3)], str(sequential.value))]
        for streams, message in cases:
            with pytest.raises(EvaluationError) as err:
                sampler.observe_streams(f, streams)
            assert str(err.value) == message
            assert threading.active_count() == before
        sampler.observe_streams(first_coord, [(50, 1), (50, 2)])
        assert threading.active_count() == before


class TestBoundedMemory:
    # about 40 blocks; one (N, N_DIM + 1) array is 20.8 MB
    N, N_DIM = 40_000, 64
    ARRAY_BYTES = N * (N_DIM + 1) * 8

    def test_sphere_check_holds_no_sample(self, traced_peak):
        peak = traced_peak(lambda: sphere_isoperimetric_check(
            self.N_DIM, [0.1, 0.2], self.N, 30))
        assert peak < self.ARRAY_BYTES / 4

    def test_profile_holds_no_sample(self, traced_peak):
        grid = np.linspace(0.25, 3.0, 12) / math.sqrt(self.N_DIM - 1)
        peak = traced_peak(lambda: concentration_profile(
            first_coord, sphere(self.N_DIM, 21), grid, self.N))
        assert peak < self.ARRAY_BYTES / 4

    @staticmethod
    def _example_configs():
        configs = Path(__file__).parent.parent / "scripts" / "configs"
        sph = json.loads((configs / "sphere.json").read_text())
        conc = json.loads((configs / "concentration.json").read_text())
        p, q = sph["parameters"], conc["parameters"]
        sampler = MMSpaceSampler(kind=q["space"]["kind"],
                                 dimension=q["space"]["dimension"],
                                 seed=conc["seed"])
        f = cli._observable(q["function"])
        return {
            "sphere": (lambda: sphere_isoperimetric_check(
                p["sphere_dimension"], p["epsilon_grid"], p["n"], sph["seed"]),
                2 * p["n"]),
            "concentration": (lambda: concentration_profile(
                f, sampler, np.asarray(q["rho_grid"]), q["n"]),
                median_stream_size(q["n"]) + q["n"]),
        }

    @pytest.mark.parametrize("name", ["sphere", "concentration"])
    def test_example_holds_its_vectors_and_a_block_per_stream(
            self, traced_peak, name):
        """The example sphere check and concentration profile hold their
        two vectors of observable values and, per stream, one block and a
        squares buffer of a quarter block: nothing of n doubles more."""
        run, values = self._example_configs()[name]
        peak = traced_peak(run)
        block = 8 * concentration.SAMPLE_CHUNK_ELEMS
        assert peak <= 1.1 * (8 * values + 2 * 1.25 * block)


class TestLevyMedian:
    """The median ``concentration_profile`` centres its deviations on,
    estimated on the independent stream 1 of ``median_stream_size(n)``
    draws."""

    @staticmethod
    def median(f, sampler, n):
        return concentration_profile(f, sampler, np.array([0.5, 1.0]), n).median_hat

    def test_coordinate_on_gaussian_is_centered(self):
        n = 10_000
        med = self.median(first_coord, _gaussian(6, 11), n)
        assert abs(med) < 4.0 / math.sqrt(median_stream_size(n))

    def test_constant_function(self):
        f = lambda x: np.full(x.shape[0], 2.25)
        assert self.median(f, _gaussian(3, 0), 500) == 2.25

    def test_radius_on_gaussian3_matches_chi_median(self):
        # oracle: invert the chi(3) CDF
        oracle = stats.chi.ppf(0.5, 3)
        assert oracle == pytest.approx(1.53817, abs=1e-5)
        n = 80_000
        med = self.median(lambda x: np.linalg.norm(x, axis=1),
                          _gaussian(3, 12), n)
        pdf_at_median = stats.chi.pdf(oracle, 3)
        se = 1.0 / (2.0 * pdf_at_median * math.sqrt(median_stream_size(n)))
        assert abs(med - oracle) < 3.0 * se

    def test_median_property_split(self):
        n = 40_000
        sampler = _gaussian(4, 13)
        med = self.median(first_coord, sampler, n)
        v = first_coord(sampler.sample(median_stream_size(n), 1))
        above = float(np.mean(v > med))
        assert abs(above - 0.5) <= 2.0 / math.sqrt(v.size)

    def test_median_stability_under_doubling(self):
        sampler = _gaussian(4, 14)
        n = 40_000
        m1 = self.median(first_coord, sampler, n)
        m2 = self.median(first_coord, sampler, 2 * n)
        v = first_coord(sampler.sample(median_stream_size(n), 1))
        iqr = float(np.subtract(*np.percentile(v, [75, 25])))
        assert abs(m2 - m1) < 4.0 / math.sqrt(v.size) * iqr

    def test_nonfinite_observable_raises(self):
        f = lambda x: np.where(x[:, 0] > 0, x[:, 0], np.nan)
        with pytest.raises(EvaluationError):
            _gaussian(2, 15).observe_streams(f, [(200, 0)])

    def test_wrong_shape_observable_raises(self):
        # one value per row is the contract; there is no row-loop retry
        with pytest.raises(EvaluationError,
                           match=r"shape \(200, 2\).*expected \(200,\)"):
            _gaussian(2, 15).observe_streams(lambda x: x, [(200, 0)])

    def test_minimum_sample_size(self):
        # a small profile still takes its median over 100 draws
        sampler = _gaussian(2, 0)
        assert median_stream_size(50) == 100
        assert self.median(first_coord, sampler, 50) == float(
            np.median(first_coord(sampler.sample(100, 1))))


# equal values of either sign, infinities, subnormals and NaN, among any floats
MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                     5e-324, -5e-324, 2.0**-1030]),
    st.integers(-3, 3).map(float),
    st.floats())


class TestMedianInPlace:
    """``median_in_place`` takes the steps of numpy's ``_median``, so a
    numpy whose median changes fails here rather than in a digest."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_np_median_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 300), label="size")
        values = np.array(data.draw(
            st.lists(MEDIAN_VALUES, min_size=n, max_size=n)), dtype=float)
        v = values.copy()
        with np.errstate(all="ignore"):  # inf + -inf, or a sum that overflows
            got = median_in_place(v)
            want = np.median(values)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert (np.float64(got).view(np.uint64)
                    == np.float64(want).view(np.uint64))
        # partitioned in place: the same bit patterns, reordered
        assert np.array_equal(np.sort(v.view(np.uint64)),
                              np.sort(values.view(np.uint64)))


class TestConcentrationProfile:
    def test_constant_function_has_zero_tail(self):
        f = lambda x: np.full(x.shape[0], 1.0)
        prof = concentration_profile(f, _gaussian(4, 20),
                                     np.array([0.1, 0.5, 1.0]), 2000)
        assert np.array_equal(prof.tail_prob, np.zeros(3))
        assert prof.fit is None

    def test_sphere_tail_dominated_by_levy_bound(self):
        n_dim, n = 32, 30_000
        grid = np.linspace(0.25, 3.0, 12) / math.sqrt(n_dim - 1)
        prof = concentration_profile(first_coord, sphere(n_dim, 21), grid, n)
        bound = sphere_tail_bound(grid, n_dim)
        se = np.sqrt(prof.tail_prob * (1 - prof.tail_prob) / n)
        usable = prof.exceed_counts >= 10
        assert np.all(prof.tail_prob[usable] <= bound[usable] + 3 * se[usable])

    def test_gaussian_tail_matches_exact_oracle(self):
        # counting machinery against the exact normal tail 2(1 - Phi(rho))
        n = 200_000
        grid = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        prof = concentration_profile(first_coord, _gaussian(4, 22), grid,
                                     n, rho_p=1.0)
        exact = 2.0 * stats.norm.sf(grid)
        se = np.sqrt(exact * (1 - exact) / n)
        assert np.all(np.abs(prof.tail_prob - exact) <= 3.5 * se)

    def test_sphere_coordinate_tail_matches_exact_law(self):
        # The example concentration config: x_0 on S^64, n = 10^5.
        cfg = json.loads((Path(__file__).parent.parent / "scripts" / "configs"
                          / "concentration.json").read_text())
        params = cfg["parameters"]
        n_dim, n = params["space"]["dimension"], params["n"]
        prof = concentration_profile(first_coord, sphere(n_dim, cfg["seed"]),
                                     np.array(params["rho_grid"]), n,
                                     sigma_f=params["sigma_f"])
        assert np.all(np.abs(_sphere_coordinate_z(
            prof, n_dim, params["sigma_f"])) <= 4.0)

    def test_sphere_coordinate_law_sees_the_sphere_of_one_dimension_less(self):
        # A sampler on S^(d-1) in place of S^d fails the law of S^d.
        n_dim, n = 16, 100_000
        grid = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        right = concentration_profile(first_coord, sphere(n_dim, 41), grid, n)
        assert np.all(np.abs(_sphere_coordinate_z(right, n_dim)) <= 4.0)
        wrong = concentration_profile(first_coord, sphere(n_dim - 1, 41),
                                      grid, n)
        assert np.max(np.abs(_sphere_coordinate_z(wrong, n_dim))) > 4.0

    def test_tail_monotone_and_in_unit_interval(self):
        prof = concentration_profile(first_coord, _gaussian(3, 23),
                                     np.linspace(0.1, 3.0, 15), 20_000)
        assert np.all(np.diff(prof.tail_prob) <= 0)
        assert np.all((prof.tail_prob >= 0) & (prof.tail_prob <= 1))

    def test_profile_validation_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            tail_profile_from_deviations(np.ones(10), np.array([0.5, 0.2]),
                                         rho_p=1.0)

    # d / sigma_x of a WEP run whose trial spread is zero (0 / 0, x / 0) or
    # whose positions overflow (inf - inf)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_deviation_is_an_evaluation_error(self, bad):
        devs = np.array([0.1, 0.4, bad, 2.0])
        with pytest.raises(EvaluationError, match="non-finite deviation"):
            tail_profile_from_deviations(devs, [0.5, 1.0], rho_p=1.0)


class TestFitDecayConstant:
    def test_exact_synthetic_recovery(self):
        # tail exactly C1 exp(-rho^2 / 2) with rho_p = 1
        grid = np.linspace(0.5, 2.5, 9)
        n = 10**6
        c1 = 0.8
        tail = c1 * np.exp(-(grid ** 2) / 2.0)
        fit = _fit_tail(grid, tail * n, n, 1.0)
        assert fit.C2_hat == pytest.approx(1.0, abs=1e-6)
        assert fit.C1_hat == pytest.approx(c1, rel=1e-6)
        assert fit.stderr < 1e-6

    def test_sphere_constant_is_order_one(self):
        n_dim = 64
        grid = np.linspace(0.25, 3.0, 12) / math.sqrt(n_dim - 1)
        prof = concentration_profile(first_coord, sphere(n_dim, 24), grid, 30_000)
        fit = fit_decay_constant(prof)
        assert 0.5 <= fit.C2_hat <= 2.0

    def test_returns_the_profiles_own_fit(self):
        grid = np.linspace(0.5, 2.5, 9)
        prof = concentration_profile(first_coord, _gaussian(4, 24), grid,
                                     10_000)
        assert prof.fit is not None
        assert fit_decay_constant(prof) is prof.fit

    def test_gaussian_mean_observable_order_one(self):
        # mean of d coordinates is N(0, 1/d); sigma_f = 1/sqrt(d)
        d, n = 100, 100_000
        sigma_f = 1.0 / math.sqrt(d)
        grid = np.linspace(0.5, 3.0, 8) * sigma_f
        f = lambda x: x.mean(axis=1)
        prof = concentration_profile(f, _gaussian(d, 25), grid, n,
                                     rho_p=sigma_f)
        fit = fit_decay_constant(prof)
        assert 0.5 <= fit.C2_hat <= 2.0
        exact = 2.0 * stats.norm.sf(grid / sigma_f)
        se = np.sqrt(exact * (1 - exact) / n)
        usable = prof.exceed_counts >= 10
        assert np.all(np.abs(prof.tail_prob - exact)[usable]
                      <= (3.5 * se)[usable])

    def test_unavailable_fit_raises(self):
        prof = concentration_profile(
            lambda x: np.full(x.shape[0], 1.0), _gaussian(2, 26),
            np.array([0.5, 1.0, 2.0]), 1000)
        with pytest.raises(FitUnavailableError):
            fit_decay_constant(prof)

    def test_dimension_scaling_of_raw_slope(self):
        # raw-grid decay slope grows affinely in (N - 1)
        slopes, dims = [], [16, 64, 256]
        for n_dim in dims:
            grid = np.linspace(0.5, 2.5, 9) / math.sqrt(n_dim - 1)
            prof = concentration_profile(first_coord, sphere(n_dim, 27), grid,
                                         30_000, rho_p=1.0)
            fit = fit_decay_constant(prof)
            slopes.append(fit.C2_hat / 2.0)  # slope of -log tail vs rho^2
        x = np.array(dims, dtype=float) - 1.0
        y = np.array(slopes)
        r = np.corrcoef(x, y)[0, 1]
        assert r ** 2 > 0.99


class TestIsoperimetric:
    def test_bound_formula_at_zero(self):
        assert sphere_neighborhood_bound(0.0, 256) == pytest.approx(
            1.0 - math.sqrt(math.pi / 8.0), abs=1e-12)
        assert abs(sphere_neighborhood_bound(0.0, 256)
                   - (1.0 - math.sqrt(math.pi / 8.0))) < 1e-5

    def test_bound_formula_near_full_distance(self):
        val = sphere_neighborhood_bound(1.0, 256)
        assert val == pytest.approx(1.0 - math.sqrt(math.pi / 8.0)
                                    * math.exp(-127.5), abs=1e-10)

    def test_high_dimension_neighborhood_measure(self):
        report = sphere_isoperimetric_check(256, [0.1, 0.2, 0.3], 20_000, 30)
        assert report.passed
        row = report.rows[1]
        assert row.bound == pytest.approx(
            1.0 - math.sqrt(math.pi / 8.0) * math.exp(-0.02 * 255), rel=1e-12)
        assert report.rows[2].empirical == 1.0

    @pytest.mark.parametrize("n_dim, grid, n, seed", [
        pytest.param(2, [0.1, 0.3, 0.6, 1.0], 20_000, 31, id="d2"),
        pytest.param(256, [0.05, 0.1, 0.2, 0.3, 0.5], 100_000, 20240604,
                     id="d256-example-config"),
    ])
    def test_neighborhood_measure_matches_exact_law(self, n_dim, grid, n,
                                                    seed):
        # Given the median m of x_0 on stream 1, the eps-neighborhood of
        # {x_0 <= m} is {x_0 <= c} with c = cos(max(acos(m) - eps, 0)), and
        # on S^d, x_0^2 ~ Beta(1/2, d/2): P(x_0 > |c|) = I_{1-c^2}(d/2, 1/2)
        # / 2.  The stream-2 count is then binomial with that probability.
        report = sphere_isoperimetric_check(n_dim, grid, n, seed)
        theta_m = math.acos(report.median_hat)
        for row in report.rows:
            c = math.cos(max(theta_m - row.epsilon, 0.0))
            upper = 0.5 * special.betainc(n_dim / 2, 0.5, 1.0 - c * c)
            p = 1.0 - upper if c >= 0 else upper
            sd = math.sqrt(p * (1.0 - p) / n)
            assert abs(row.empirical - p) <= 4.0 * sd, (row.epsilon, p)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            sphere_isoperimetric_check(1, [0.1], 1000, 0)


class TestBounds:
    def test_gaussian_bound_shape(self):
        assert gaussian_tail_bound(0.0, 1.0) == 0.5
        assert gaussian_tail_bound(2.0, 1.0) == pytest.approx(0.5 * math.exp(-2.0))
