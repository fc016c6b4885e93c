import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randerslab.geometry import (
    ConeViolationError,
    FieldEvaluationError,
    HamiltonRandersStructure,
    PhasePoint,
    RandersField,
    StencilError,
    constant_field,
    fundamental_tensor,
    linear_field,
    randers_function,
    tanh_field,
    validate_randers,
    zero_field,
)


class TestPhasePoint:
    def test_valid_point(self):
        pt = PhasePoint(u=np.zeros(16), p=np.ones(16), n_molecules=2)
        assert pt.dim == 16

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PhasePoint(u=np.zeros(16), p=np.zeros(8), n_molecules=2)

    def test_nonfinite_rejected(self):
        u = np.zeros(8)
        u[3] = np.nan
        with pytest.raises(ValueError):
            PhasePoint(u=u, p=np.zeros(8), n_molecules=1)


class TestValidateRanders:
    def test_zero_field_passes_with_zero_max(self):
        report = validate_randers(zero_field(8), samples=50, seed=1)
        assert report.passed
        assert report.max_abs_component == 0.0

    def test_tanh_09_passes_below_grid_supremum(self):
        # analytic sup of 0.9 tanh on [-10, 10] is at the edge; a dense grid
        # evaluation of one component is the oracle for the sampled max
        field = tanh_field(8, 0.9)
        grid = np.linspace(-10.0, 10.0, 200001)
        grid_sup = np.max(np.abs(0.9 * np.tanh(grid)))
        report = validate_randers(field, samples=10_000, seed=2)
        assert report.passed
        assert report.max_abs_component < 0.9
        assert report.max_abs_component <= grid_sup

    def test_scaled_tanh_fails_at_saturation(self):
        # 1.5 tanh(u) exceeds 1 once |u| is large: 1.5 tanh(10) > 1
        assert 1.5 * np.tanh(10.0) > 1.0
        field = tanh_field(8, 1.5, claimed_bound=0.9)
        report = validate_randers(field, samples=10_000, seed=3)
        assert not report.passed
        assert report.max_abs_component > 1.0

    def test_nonfinite_output_names_sample(self):
        bad = zero_field(4)
        field = RandersField(beta=lambda u: np.full_like(np.asarray(u, float), np.nan),
                             beta_bound=0.5, eta=np.eye(4), dim=4)
        with pytest.raises(FieldEvaluationError, match="sample"):
            validate_randers(field, samples=10, seed=0)
        del bad

    def test_requires_at_least_one_sample(self):
        with pytest.raises(ValueError):
            validate_randers(zero_field(8), samples=0, seed=0)

    @pytest.mark.parametrize("scale", [0.1, 0.5, 0.9])
    def test_scaling_keeps_validation_passing(self, scale):
        # Randers condition is monotone: shrinking a passing drift never
        # flips the validation to failing.
        base = tanh_field(8, 0.9)
        assert validate_randers(base, 2000, seed=4).passed
        shrunk = tanh_field(8, 0.9 * scale)
        assert validate_randers(shrunk, 2000, seed=4).passed


class TestRandersFunction:
    def setup_method(self):
        self.hrs = HamiltonRandersStructure(field=zero_field(8))

    def test_zero_theta_violates_cone(self):
        with pytest.raises(ConeViolationError):
            randers_function(self.hrs, np.zeros(8), np.zeros(8))

    def test_unit_vector_gives_one(self):
        theta = np.eye(8)[0]
        assert randers_function(self.hrs, np.zeros(8), theta) == pytest.approx(1.0)

    def test_constant_drift_adds_linear_term(self):
        vec = 0.5 * np.eye(8)[0]
        hrs = HamiltonRandersStructure(field=constant_field(vec, 8))
        value = randers_function(hrs, np.zeros(8), np.eye(8)[0])
        assert value == pytest.approx(1.5)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), lam=st.floats(0.01, 100.0))
    def test_positive_homogeneity(self, seed, lam):
        rng = np.random.default_rng(seed)
        field = tanh_field(8, 0.6)
        hrs = HamiltonRandersStructure(field=field)
        u = rng.normal(size=8)
        theta = rng.normal(size=8)
        f1 = randers_function(hrs, u, lam * theta)
        f0 = randers_function(hrs, u, theta)
        assert f1 == pytest.approx(lam * f0, rel=1e-12)


class TestFundamentalTensor:
    def test_zero_drift_identity_metric(self):
        hrs = HamiltonRandersStructure(field=zero_field(4))
        theta = np.array([0.3, -0.8, 0.5, 1.1])
        g = fundamental_tensor(hrs, np.zeros(4), theta)
        assert np.allclose(g, np.eye(4), atol=1e-6)

    def test_zero_drift_diagonal_metric(self):
        diag = np.array([1.0, 2.0, 0.5, 3.0])
        hrs = HamiltonRandersStructure(field=zero_field(4, eta=np.diag(diag)))
        theta = np.array([1.0, 0.2, -0.4, 0.7])
        g = fundamental_tensor(hrs, np.zeros(4), theta)
        assert np.allclose(g, np.diag(diag), atol=1e-6)

    def test_constant_drift_positive_definite(self):
        vec = 0.5 * np.eye(4)[0]
        hrs = HamiltonRandersStructure(field=constant_field(vec, 4))
        g = fundamental_tensor(hrs, np.zeros(4), np.eye(4)[1])
        assert np.allclose(g, g.T)
        assert np.linalg.eigvalsh(g)[0] > 0.0

    def test_positive_definite_at_random_cone_points(self):
        rng = np.random.default_rng(11)
        hrs = HamiltonRandersStructure(field=tanh_field(6, 0.8))
        for _ in range(5):
            theta = rng.normal(size=6)
            g = fundamental_tensor(hrs, rng.normal(size=6), theta)
            assert np.allclose(g, g.T)
            assert np.linalg.eigvalsh(g)[0] > 0.0

    def test_stencil_error_near_cone_boundary(self):
        # indefinite eta: theta barely inside the cone, stencil steps out
        eta = np.diag([1.0, -1.0])
        field = RandersField(beta=lambda u: np.zeros_like(np.asarray(u, float)),
                             beta_bound=0.5, eta=eta, dim=2, euclidean_eta=False)
        hrs = HamiltonRandersStructure(field=field)
        theta = np.array([1.0, 0.999999])
        with pytest.raises(StencilError):
            fundamental_tensor(hrs, np.zeros(2), theta, h=0.1)


class TestFieldInvariants:
    def test_beta_bound_range_enforced(self):
        with pytest.raises(ValueError):
            RandersField(beta=lambda u: u, beta_bound=1.0, eta=np.eye(2), dim=2)

    def test_eta_symmetry_enforced(self):
        eta = np.eye(2)
        eta[0, 1] = 0.5
        with pytest.raises(ValueError):
            RandersField(beta=lambda u: u, beta_bound=0.5, eta=eta, dim=2)

    def test_euclidean_eta_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            RandersField(beta=lambda u: u, beta_bound=0.5,
                         eta=np.diag([1.0, -1.0]), dim=2)


class TestVectorJacobianProduct:
    @pytest.mark.parametrize("make", [
        lambda: zero_field(16),
        lambda: constant_field(0.3, 16),
        lambda: tanh_field(16, -0.7),
        lambda: linear_field(np.random.default_rng(3).normal(size=(16, 16))),
    ])
    def test_analytic_vjp_matches_finite_difference_jacobian(self, make):
        field = make()
        rng = np.random.default_rng(4)
        u, p = rng.normal(size=16), rng.normal(size=16)
        got = field.vjp_at(u, p)
        assert got.shape == (16,)
        assert np.allclose(got, field.jacobian_at(u).T @ p, atol=1e-8)

    def test_custom_field_falls_back_to_finite_differences(self):
        a = np.random.default_rng(5).normal(size=(8, 8))
        field = RandersField(beta=lambda u: np.asarray(u) @ a.T,
                             beta_bound=0.9, eta=None, dim=8)
        p = np.arange(8.0)
        assert np.allclose(field.vjp_at(np.ones(8), p), a.T @ p, atol=1e-8)
