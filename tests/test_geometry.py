import math

import numpy as np
import pytest

from randerslab.geometry import (
    PhasePoint,
    RandersField,
    constant_field,
    linear_field,
    tanh_field,
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


class TestFieldInvariants:
    def test_beta_bound_range_enforced(self):
        with pytest.raises(ValueError):
            RandersField(beta=lambda u: u, beta_bound=1.0, dim=2,
                         rate=lambda z: z)

    @pytest.mark.parametrize("value", [1.0, -1.5, math.nan])
    def test_constant_field_outside_the_randers_bound_rejected(self, value):
        with pytest.raises(ValueError):
            constant_field(value, 4)

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
        # the rate's momentum half is the analytic -J(u)^T p, written over
        # p in place; its position half is beta(u)
        field = make()
        rng = np.random.default_rng(4)
        u, p = rng.normal(size=16), rng.normal(size=16)
        z = np.stack((u, p))
        assert field.rate(z) is z
        assert z[0].tobytes() == field.beta(u).tobytes()
        assert np.allclose(z[1], -field.jacobian_at(u).T @ p, atol=1e-8)

