import numpy as np
import pytest

from randerslab.geometry import (
    FieldEvaluationError,
    PhasePoint,
    RandersField,
    constant_field,
    linear_field,
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
        # a field whose certified bound is false: validation must catch it
        field = RandersField(beta=lambda u: 1.5 * np.tanh(u), beta_bound=0.9,
                             dim=8, vjp=lambda u, p: 1.5 / np.cosh(u) ** 2 * p)
        report = validate_randers(field, samples=10_000, seed=3)
        assert not report.passed
        assert report.max_abs_component > 1.0

    def test_nonfinite_output_names_sample(self):
        field = RandersField(beta=lambda u: np.full_like(np.asarray(u, float), np.nan),
                             beta_bound=0.5, dim=4, vjp=lambda u, p: np.zeros_like(p))
        with pytest.raises(FieldEvaluationError, match="sample"):
            validate_randers(field, samples=10, seed=0)

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


class TestFieldInvariants:
    def test_beta_bound_range_enforced(self):
        with pytest.raises(ValueError):
            RandersField(beta=lambda u: u, beta_bound=1.0, dim=2,
                         vjp=lambda u, p: p)

    @pytest.mark.parametrize("field", [tanh_field(8, 0.9),
                                       constant_field(-0.4, 8), zero_field(8)],
                             ids=["tanh", "constant", "zero"])
    def test_scalar_map_overwrites_its_argument_with_beta(self, field):
        # the componentwise drift works in place: it returns its argument,
        # holding beta of it byte for byte, and beta leaves its own alone
        special = [0.0, -0.0, 5e-324, -1e-310, 30.0, -30.0, 700.0, -700.0]
        x = np.concatenate((np.random.default_rng(6).normal(size=40),
                            special)).reshape(3, 16)
        x0 = x.copy()
        want = field.beta(x0)
        assert want is not x0 and x0.tobytes() == x.tobytes()
        assert field.scalar_map(x) is x
        assert x.tobytes() == want.tobytes()


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
        got = field.vjp(u, p)
        assert got.shape == (16,)
        assert np.allclose(got, field.jacobian_at(u).T @ p, atol=1e-8)

