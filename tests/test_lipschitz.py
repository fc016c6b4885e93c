import math
import signal
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randerslab import lipschitz
from randerslab.dynamics import (
    EquilibriumSnapshot,
    make_state,
    run_cycles,
    sin_squared_schedule,
)
from randerslab.geometry import PhasePoint, tanh_field
from randerslab.lipschitz import (
    N_IDENTITY_CHECK,
    BoxMetric,
    CompactBox,
    EstimationError,
    LipschitzError,
    ProfileError,
    ScaleProfile,
    _part_estimate,
    decomposition_report,
    estimate_lipschitz,
    normalize_to_one_lipschitz,
    project_to_box,
    radial_decomposition,
    tune_profile,
)


def randers_hamiltonian(field, dim_u):
    def h(z):
        z = np.asarray(z, dtype=float)
        return np.sum(field.beta(z[..., :dim_u]) * z[..., dim_u:], axis=-1)
    return h


class TestEstimate:
    def test_linear_functional_recovers_dual_norm(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=32)
        box = CompactBox.cube(32, 0.5)
        est = estimate_lipschitz(lambda z: z @ a, box, n_pairs=10_000, seed=7)
        assert est.constant_hat == pytest.approx(np.linalg.norm(a), rel=0.02)
        assert est.constant_hat <= np.linalg.norm(a) * (1 + 1e-9)

    def test_wrong_output_shape_raises(self):
        # a function of one point, not of an (n, d) batch, returns a scalar
        box = CompactBox.cube(4, 1.0)
        with pytest.raises(LipschitzError, match=r"shape \(\).*expected \(10,\)"):
            estimate_lipschitz(lambda z: float(np.sum(z)), box, n_pairs=10,
                               seed=0)

    def test_single_point_is_batched(self):
        box = CompactBox.cube(4, 1.0)
        h = normalize_to_one_lipschitz(lambda z: z.sum(axis=1),
                                       estimate_lipschitz(lambda z: z.sum(axis=1),
                                                          box, n_pairs=10, seed=0))
        assert isinstance(h(np.ones(4)), float)

    def test_constant_function_gives_zero(self):
        box = CompactBox.cube(8, 1.0)
        est = estimate_lipschitz(lambda z: np.full(z.shape[0], 3.5), box,
                                 n_pairs=500, seed=1)
        assert est.constant_hat == 0.0

    def test_norm_function_on_box_off_origin(self):
        # |z| is 1-Lipschitz; on [1, 2]^8 the quotients approach 1
        box = CompactBox(lower=np.ones(8), upper=2 * np.ones(8))
        f = lambda z: np.linalg.norm(z, axis=-1)
        est = estimate_lipschitz(f, box, n_pairs=10_000, seed=2)
        assert 0.98 <= est.constant_hat <= 1.0 + 1e-9
        # brute-force pair maximum stays a valid lower bound below 1
        rng = np.random.default_rng(3)
        pts = box.sample(800, rng)
        vals = f(pts)
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        diff = np.abs(vals[:, None] - vals[None, :])
        mask = dist > 0
        brute = float((diff[mask] / dist[mask]).max())
        assert brute <= 1.0 + 1e-12
        assert est.constant_hat >= brute - 0.02

    def test_sine_ridge_stays_below_its_exact_constant(self):
        # sup |grad sin(z.a)| = |a|, attained on the plane z.a = 0 through
        # the box; pair quotients cannot exceed it, and the aligned short
        # pairs come within 0.1 % of it
        rng = np.random.default_rng(9)
        a = rng.normal(size=12)
        box = CompactBox.cube(12, 1.0)
        est = estimate_lipschitz(lambda z: np.sin(z @ a), box, n_pairs=4000,
                                 seed=4)
        exact = np.linalg.norm(a)
        assert 0.999 * exact <= est.constant_hat <= exact * (1 + 1e-9)

    def test_tanh_hamiltonian_stays_below_its_exact_constant(self):
        # h = a tanh(u).p on [-1, 1]^16 (the example lipschitz config):
        # |grad h|^2 = a^2 sum((1 - t_i^2)^2 p_i^2 + t_i^2) with
        # t_i = tanh(u_i) is at most a^2 dim_u, attained at u = 0 with every
        # |p_i| = 1, a corner that uniform pairs almost never reach
        dim_u, amp = 8, 0.9
        h = randers_hamiltonian(tanh_field(dim_u, amp), dim_u)
        box = CompactBox.cube(2 * dim_u, 1.0)
        worst = max(estimate_lipschitz(h, box, n_pairs=4000,
                                       seed=seed).constant_hat
                    for seed in range(50))
        assert worst <= amp * math.sqrt(dim_u) * (1 + 1e-9)

    def test_degenerate_pairs_raise(self):
        class DegenerateBox(CompactBox):
            def sample(self, n, rng):
                return np.tile(self.center, (n, 1))

        tiny = DegenerateBox(lower=np.zeros(4), upper=np.ones(4))
        f = lambda z: np.zeros(np.asarray(z).shape[0])
        with pytest.raises(EstimationError):
            estimate_lipschitz(f, tiny, n_pairs=3, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_box_whose_diameter_overflows_raises(self):
        # its pair distances would be infinite and every quotient zero
        dim_u = 8
        h = randers_hamiltonian(tanh_field(dim_u, 0.9), dim_u)
        box = CompactBox.cube(2 * dim_u, 1e300)
        with pytest.raises(EstimationError, match="diameter overflows"):
            estimate_lipschitz(h, box, n_pairs=50, seed=0)
        with pytest.raises(EstimationError, match="diameter overflows"):
            radial_decomposition(h, box, n_pairs=50, seed=0)


class TestNormalize:
    def test_rescales_to_unit_constant(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=16)
        a *= 4.0 / np.linalg.norm(a)
        box = CompactBox.cube(16, 1.0)
        f = lambda z: z @ a
        est = estimate_lipschitz(f, box, n_pairs=8000, seed=8)
        assert est.constant_hat == pytest.approx(4.0, rel=0.02)
        g = normalize_to_one_lipschitz(f, est)
        est2 = estimate_lipschitz(g, box, n_pairs=8000, seed=9)
        assert est2.constant_hat <= 1.02

    def test_already_one_lipschitz_left_unchanged(self):
        box = CompactBox.cube(8, 1.0)
        f = lambda z: 0.25 * z[:, 0]
        est = estimate_lipschitz(f, box, n_pairs=2000, seed=10)
        assert est.constant_hat <= 1.0
        g = normalize_to_one_lipschitz(f, est)
        assert g.scale == 1.0
        z = box.sample(50, np.random.default_rng(0))
        assert np.array_equal(g(z), f(z))


class TestBoxMetric:
    def test_kind_says_whether_both_scales_are_one(self):
        assert BoxMetric().kind == "euclidean"
        assert BoxMetric(u_scale=0.5, p_scale=2.0).kind == "weighted"
        assert BoxMetric(u_scale=1.0, p_scale=2.0).kind == "weighted"

    def test_default_distance_is_the_euclidean_length(self):
        rng = np.random.default_rng(11)
        z1, z2 = rng.normal(size=(2, 50, 16))
        assert np.array_equal(BoxMetric().distance(z1, z2),
                              np.sqrt(np.sum((z1 - z2) ** 2, axis=-1)))

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("key", ["u_scale", "p_scale"])
    def test_scale_must_be_positive(self, key, scale):
        with pytest.raises(ValueError, match="must be positive"):
            BoxMetric(**{key: scale})


class TestProjectToBox:
    def test_interior_identity(self):
        box = CompactBox.cube(4, 1.0)
        z = np.array([0.2, -0.5, 0.9, 0.0])
        zbar, rho = project_to_box(z, box)
        assert np.array_equal(zbar, z)
        assert rho == 0.0

    def test_single_face_clamp(self):
        box = CompactBox.cube(4, 1.0)
        z = np.array([2.0, 0.0, 0.0, 0.0])
        zbar, rho = project_to_box(z, box)
        assert np.array_equal(zbar, np.array([1.0, 0.0, 0.0, 0.0]))
        assert rho == 1.0

    def test_corner_clamp_matches_dense_boundary_oracle(self):
        box = CompactBox.cube(2, 1.0)
        z = np.array([2.0, 3.0])
        zbar, rho = project_to_box(z, box)
        assert np.array_equal(zbar, np.array([1.0, 1.0]))
        assert rho == pytest.approx(np.sqrt(5.0), rel=1e-12)
        # dense grid over the box as the minimizer oracle
        g = np.linspace(-1, 1, 801)
        gx, gy = np.meshgrid(g, g)
        d = np.sqrt((gx - 2.0) ** 2 + (gy - 3.0) ** 2)
        assert rho == pytest.approx(d.min(), abs=5e-3)

    def test_weighted_metric_distance(self):
        metric = BoxMetric(u_scale=2.0, p_scale=0.5)
        box = CompactBox.cube(4, 1.0, metric=metric)
        z = np.array([3.0, 0.0, 0.0, -2.0])
        zbar, rho = project_to_box(z, box)
        assert np.array_equal(zbar, np.array([1.0, 0.0, 0.0, -1.0]))
        assert rho == pytest.approx(np.sqrt((2.0 * 2.0) ** 2 + (0.5 * 1.0) ** 2))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_projection_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        box = CompactBox.cube(6, 1.0)
        z = 3.0 * rng.normal(size=6)
        zbar, rho = project_to_box(z, box)
        zbar2, rho2 = project_to_box(zbar, box)
        assert np.array_equal(zbar, zbar2)
        assert rho2 == 0.0
        inside = bool(np.all((z >= box.lower) & (z <= box.upper)))
        assert (rho == 0.0) == inside


class TestRadialDecomposition:
    def test_interior_point_is_pure_lipschitz_part(self):
        box = CompactBox.cube(4, 1.0)
        h = lambda z: np.asarray(z)[..., 0] * 0.5
        decomp = radial_decomposition(h, box, scale_profile=ScaleProfile(rho0=1.0))
        z = np.array([0.3, -0.2, 0.1, 0.9])
        assert decomp.lipschitz_part(z) == h(z[None, :])[0]
        assert decomp.matter_part(z) == 0.0

    def test_constant_function_splits_by_profile(self):
        box = CompactBox.cube(4, 1.0)
        c = 0.7
        h = lambda z: np.full(np.asarray(z).shape[:-1], c)
        profile = ScaleProfile(rho0=2.0)
        decomp = radial_decomposition(h, box, scale_profile=profile)
        z = np.array([3.0, 0.0, 0.0, 0.0])  # rho = 2 from the box
        r = profile(2.0)
        assert decomp.lipschitz_part(z) == pytest.approx(c * r, rel=1e-12)
        assert decomp.matter_part(z) == pytest.approx(c * (1 - r), rel=1e-12)

    def test_identity_and_vanishing_matter_on_box(self):
        field = tanh_field(8, 0.9)
        box = CompactBox.cube(16, 1.0)
        h_raw = randers_hamiltonian(field, 8)
        est = estimate_lipschitz(h_raw, box, n_pairs=4000, seed=0)
        h = normalize_to_one_lipschitz(h_raw, est)
        decomp = radial_decomposition(h, box, seed=1)
        rng = np.random.default_rng(2)
        z_in = box.sample(2000, rng)
        z_out = box.enlarge(3.0).sample(8000, rng)
        z = np.vstack([z_in, z_out])
        resid = np.abs(h(z) - (decomp.lipschitz_part(z) + decomp.matter_part(z)))
        assert resid.max() <= 1e-12
        assert np.max(np.abs(decomp.matter_part(z_in))) == 0.0

    def test_auto_tuned_global_estimate_at_most_one(self):
        field = tanh_field(8, 0.9)
        box = CompactBox.cube(16, 1.0)
        h_raw = randers_hamiltonian(field, 8)
        est = estimate_lipschitz(h_raw, box, n_pairs=4000, seed=3)
        h = normalize_to_one_lipschitz(h_raw, est)
        decomp = radial_decomposition(h, box, seed=4)
        assert decomp.tuning_converged
        fresh = estimate_lipschitz(decomp.lipschitz_part, box.enlarge(3.0),
                                   n_pairs=6000, seed=5)
        assert fresh.constant_hat <= 1.05

    def test_monotone_profile_in_rho0(self):
        field = tanh_field(8, 0.9)
        box = CompactBox.cube(16, 1.0)
        h_raw = randers_hamiltonian(field, 8)
        est = estimate_lipschitz(h_raw, box, n_pairs=4000, seed=6)
        h = normalize_to_one_lipschitz(h_raw, est)

        def sampled_constant(rho0):
            decomp = radial_decomposition(h, box,
                                          scale_profile=ScaleProfile(rho0=rho0),
                                          seed=7)
            return decomp.global_estimate

        c_small = sampled_constant(0.5)
        c_large = sampled_constant(5.0)
        assert c_large <= c_small * 1.05

    def test_tuning_ends_where_the_midpoint_overflows(self, monkeypatch):
        # a box diameter near 4e153 and a target that only rho0 >= 4**7
        # diameters meets: the first midpoint sqrt(lo * hi) overflows to inf,
        # and the tuning fails there, naming the diameter.  The alarm fails
        # a bisection that never ends
        box = CompactBox.cube(16, 5e152)
        edge = 4.0**7 * box.diameter
        monkeypatch.setattr(lipschitz, "_part_estimate",
                            lambda *args: lambda p: 0.5 if p.rho0 >= edge
                            else 2.0)

        def hang(*_):
            pytest.fail("the bisection did not end")
        handler = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            with pytest.raises(lipschitz.EstimationError,
                               match=r"^the rho0 tuning bracket overflows "
                                     r"the double range at box diameter "
                                     r"4e\+153$"):
                tune_profile(None, box)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)

    def test_tuning_fails_where_the_growing_bracket_overflows(self,
                                                             monkeypatch):
        # a diameter of 8e301 (a CompactBox's own overflows past about
        # 1e154) and a target that no rho0 meets: hi = 4**k diameters
        # overflows to inf at k = 11, within the 12 growths allowed
        box = types.SimpleNamespace(diameter=8e301)
        monkeypatch.setattr(lipschitz, "_part_estimate",
                            lambda *args: lambda p: 2.0)
        with pytest.raises(lipschitz.EstimationError,
                           match=r"bracket overflows .* diameter 8e\+301$"):
            tune_profile(None, box)

    def test_profile_validation(self):
        with pytest.raises(ProfileError):
            ScaleProfile(rho0=-1.0)

    # R(0) = 1 / (1 + 0 / rho0) is 1 for every positive rho0, and NaN for a
    # NaN rho0, which the positivity check must reject (-1.0: above)
    @pytest.mark.parametrize("rho0", [math.nan, 0.0])
    def test_rho0_must_be_positive(self, rho0):
        with pytest.raises(ProfileError, match="rho0 must be positive"):
            ScaleProfile(rho0=rho0)


def normalized_tanh_hamiltonian(dim_u, metric, n_pairs, seed):
    """The lipschitz CLI's tanh Hamiltonian, normalized on the unit cube."""
    h_raw = randers_hamiltonian(tanh_field(dim_u, 0.9), dim_u)
    box = CompactBox.cube(2 * dim_u, 1.0, metric=metric)
    est = estimate_lipschitz(h_raw, box, n_pairs=n_pairs, seed=seed)
    return normalize_to_one_lipschitz(h_raw, est), box


METRICS = [BoxMetric(), BoxMetric(u_scale=0.5, p_scale=2.0)]


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.kind)
class TestDrawOnce:
    """The tuning's three pair samples are drawn once and serve every rho0;
    the result equals fresh estimate_lipschitz calls bit for bit."""

    N_PAIRS = 300
    RHO0S = (0.01, 0.3, 2.0, 50.0)

    def _fresh(self, h, box, profile, seed):
        def lip_part(z):
            zbar, rho = project_to_box(z, box)
            return profile(rho) * h(zbar)
        return max(estimate_lipschitz(lip_part, dom, self.N_PAIRS,
                                      seed).constant_hat
                   for dom in (box.enlarge(3.0), box.enlarge(1.15), box))

    def test_part_estimate_equals_fresh_estimates(self, metric):
        h, box = normalized_tanh_hamiltonian(4, metric, self.N_PAIRS, 11)
        part = _part_estimate(h, box, self.N_PAIRS, 12)
        for rho0 in self.RHO0S:
            profile = ScaleProfile(rho0=rho0)
            assert part(profile) == self._fresh(h, box, profile, 12)

    @pytest.mark.parametrize("seed", [12, 14, 16])
    def test_tuning_equals_bisection_on_fresh_estimates(self, metric, seed,
                                                        monkeypatch):
        h, box = normalized_tanh_hamiltonian(4, metric, self.N_PAIRS, 11)
        drawn = tune_profile(h, box, self.N_PAIRS, seed)
        monkeypatch.setattr(
            lipschitz, "_part_estimate",
            lambda h, box, n_pairs, seed:
                lambda profile: self._fresh(h, box, profile, seed))
        assert tune_profile(h, box, self.N_PAIRS, seed) == drawn

    def test_h_sees_each_sample_point_once(self, metric, monkeypatch):
        dim_u, n_pairs = 4, self.N_PAIRS
        h, box = normalized_tanh_hamiltonian(dim_u, metric, n_pairs, 11)
        rows = []

        def counted(z):
            rows.append(len(z))
            return h(z)
        rho0s = set()

        class Recorded(ScaleProfile):
            def __post_init__(self):
                super().__post_init__()
                rho0s.add(self.rho0)
        monkeypatch.setattr(lipschitz, "ScaleProfile", Recorded)
        decomp = radial_decomposition(counted, box, n_pairs=n_pairs, seed=12)
        assert decomp.profile.rho0 in rho0s
        # pair ends and finite-difference probes once per domain; only the
        # gradient-aligned short pairs per rho0; then the identity check,
        # which evaluates h and the Lipschitz part once each
        dim, n_ref = 2 * dim_u, min(256, n_pairs)
        bound = (3 * (2 * n_pairs + 2 * dim * n_ref)
                 + len(rho0s) * 3 * 2 * n_ref + 2 * N_IDENTITY_CHECK)
        assert sum(rows) <= bound

    def test_tuning_holds_values_not_points(self, metric, traced_peak):
        dim_u, n_pairs = 8, 4000
        h, box = normalized_tanh_hamiltonian(dim_u, metric, n_pairs, 0)
        # one pair sample's two (n_pairs, dim) point arrays, per domain
        bound = 3 * 2 * n_pairs * (2 * dim_u) * 8
        peak = traced_peak(lambda: tune_profile(h, box, n_pairs=n_pairs,
                                                seed=1))
        assert peak < bound


def _box_around_snapshots(snapshots, dilate=1.1):
    """Box enclosing the (u, p) points of equilibrium snapshots, dilated."""
    pts = np.array([np.concatenate([s.point.u, s.point.p]) for s in snapshots])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    half = np.maximum(half * dilate, 1e-6 + 0.1 * np.abs(c))
    return CompactBox(lower=c - half, upper=c + half)


class TestConstraintSplit:
    def _decomposed_flow(self, p_scale, seed):
        field = tanh_field(16, 0.9)
        sched = sin_squared_schedule(1.0)
        rng = np.random.default_rng(seed)
        pt = PhasePoint(u=rng.normal(size=16), p=p_scale * rng.normal(size=16),
                        n_molecules=2)
        _, snaps = run_cycles(field, sched, make_state(pt, sched),
                              n_cycles=3, dt=0.01, store_trajectory=False)
        box = _box_around_snapshots(snaps)
        h_raw = randers_hamiltonian(field, 16)
        est = estimate_lipschitz(h_raw, box, n_pairs=2000, seed=seed)
        h = normalize_to_one_lipschitz(h_raw, est)
        decomp = radial_decomposition(h, box, seed=seed)
        return decomp, snaps

    def test_generic_momentum_sum_suppressed_parts_reported(self):
        decomp, snaps = self._decomposed_flow(p_scale=1.0, seed=20)
        report = decomposition_report(decomp, snaps)
        assert report["constraint_passed"]
        # the equilibrium prefactor kills the sum while the unsuppressed
        # parts stay generically nonzero
        assert all(abs(r["H"]) <= 1e-9 * 10 for r in report["snapshots"])
        assert any(abs(r["lipschitz_part"]) > 0 for r in report["snapshots"])

    def test_zero_momentum_all_parts_vanish(self):
        decomp, snaps = self._decomposed_flow(p_scale=0.0, seed=21)
        report = decomposition_report(decomp, snaps)
        assert report["constraint_passed"]
        for r in report["snapshots"]:
            assert r["H"] == 0.0
            assert abs(r["lipschitz_part"]) < 1e-12
            assert abs(r["matter_part"]) < 1e-12

    def test_report_schema(self):
        decomp, snaps = self._decomposed_flow(p_scale=0.5, seed=22)
        report = decomposition_report(decomp, snaps)
        assert set(report) >= {"box", "metric", "profile",
                               "lipschitz_estimate_global",
                               "identity_max_abs_residual", "snapshots"}
        assert report["profile"]["family"] == "inverse_linear"
        row = report["snapshots"][0]
        assert set(row) == {"t", "H", "lipschitz_part", "matter_part"}
        assert isinstance(report["sign_note"], str)
        # without snapshots the split is left out
        bare = decomposition_report(decomp)
        assert bare["snapshots"] == []
        assert not {"constraint_passed", "sign_note"} & set(bare)


def _snapshots(points, h_values):
    return [EquilibriumSnapshot(cycle=k + 1, t=2.0 * k + 1.0,
                                point=PhasePoint(u=z[:8], p=z[8:],
                                                 n_molecules=1),
                                h_value=h)
            for k, (z, h) in enumerate(zip(points, h_values))]


class TestSnapshotReport:
    """decomposition_report's split at snapshots outside a small box, where
    the matter part is generically nonzero."""

    @pytest.fixture(scope="class")
    def decomp(self):
        h = randers_hamiltonian(tanh_field(8, 0.9), 8)
        return radial_decomposition(h, CompactBox.cube(16, 0.1),
                                    scale_profile=ScaleProfile(rho0=0.5),
                                    n_pairs=200, seed=0)

    def test_sign_note_counts_positive_matter_snapshots(self, decomp):
        points = np.random.default_rng(30).normal(size=(40, 16))
        report = decomposition_report(decomp, _snapshots(points, [0.0] * 40))
        mat = [float(decomp.matter_part(z)) for z in points]
        lip = [float(decomp.lipschitz_part(z)) for z in points]
        n_pos = sum(m > 0 for m in mat)
        n_lip_nonpos = sum(m > 0 and l <= 0 for m, l in zip(mat, lip))
        assert 0 < n_lip_nonpos < n_pos < 40
        assert report["sign_note"] == (
            f"{n_lip_nonpos}/{n_pos} snapshots with positive matter part "
            "have a nonpositive Lipschitz part")
        assert [(r["lipschitz_part"], r["matter_part"])
                for r in report["snapshots"]] == list(zip(lip, mat))
        assert report["constraint_passed"]

    @pytest.mark.parametrize("h", [1e-8, -1e-8, math.nan])
    def test_constraint_fails_when_a_snapshot_breaks_the_bound(self, decomp,
                                                               h):
        # |p| is about 4, so the bound is about 5e-9
        points = np.random.default_rng(31).normal(size=(3, 16))
        snaps = _snapshots(points, [0.0, h, 1e-10])
        assert not snaps[1].h_within_bound
        report = decomposition_report(decomp, snaps)
        assert report["constraint_passed"] is False
        assert [r["H"] for r in report["snapshots"]][0::2] == [0.0, 1e-10]
