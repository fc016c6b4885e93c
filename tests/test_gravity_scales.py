import dataclasses
import math

import numpy as np
import pytest

from randerslab.gravity_scales import (
    GravityScaleCase,
    PhysicalConstants,
    SingularCaseError,
    alpha_closed_form,
    alpha_oracle,
    codata2018,
    default_sweep_cases,
    scale_sweep,
)

C = codata2018()


class TestConstants:
    def test_planck_values_self_consistent(self):
        assert C.l_P == pytest.approx(1.616255e-35, rel=1e-4)
        assert C.m_P == pytest.approx(2.176434e-8, rel=1e-4)
        assert C.F_P == pytest.approx(C.c**4 / C.G, rel=1e-15)
        assert C.D_P == pytest.approx(C.m_P / C.l_P**3, rel=1e-15)
        assert C.E_P == pytest.approx(C.m_P * C.c**2, rel=1e-15)


class TestClosedForm:
    def test_planck_point_evaluates_to_exactly_two(self):
        case = GravityScaleCase.from_lambda("planck-sat", C.m_P, C.l_P, 1.0)
        assert alpha_closed_form(case, C) == 2.0

    def test_vanishes_quadratically_with_mass(self):
        base = GravityScaleCase.from_lambda("m", 1.0, 1.0, 0.5)
        tiny = GravityScaleCase.from_lambda("m/10", 0.1, 1.0, 0.5)
        a1 = alpha_closed_form(base, C)
        a2 = alpha_closed_form(tiny, C)
        assert a2 == pytest.approx(a1 / 100.0, rel=1e-12)
        assert a2 > 0.0

    def test_proton_case_tiny_and_tracks_oracle(self):
        case = GravityScaleCase.from_lambda("proton", 1.672e-27, 1e-15, 0.5)
        formula = alpha_closed_form(case, C)
        oracle = alpha_oracle(case, C)
        assert oracle < 1e-30
        # r1-density convention: formula carries the printed lambda^-3
        # prefactor, the force difference gives (1+lambda) lambda
        assert formula / oracle == pytest.approx(0.5 ** -4, rel=1e-10)

    def test_r2_density_convention_ratio(self):
        case = GravityScaleCase.from_lambda("proton-r2", 1.672e-27, 1e-15, 0.5,
                                            density_convention="r2")
        formula = alpha_closed_form(case, C)
        oracle = alpha_oracle(case, C)
        assert formula / oracle == pytest.approx(1.0 / 0.5, rel=1e-10)

    def test_lambda_underflow_rejected(self):
        # r1 / r2 underflows to 0 although both radii are positive
        case = GravityScaleCase(name="far", m=1.0, M_mass=1.0, r1=5e-324,
                                r2=1e308)
        with pytest.raises(ValueError, match="lambda must be positive"):
            alpha_closed_form(case, C)

    def test_equal_masses_required(self):
        case = GravityScaleCase(name="uneq", m=1.0, M_mass=2.0, r1=0.5, r2=1.0)
        with pytest.raises(ValueError):
            alpha_closed_form(case, C)


class TestCase:
    @pytest.mark.parametrize("field, error", [
        ("r1", SingularCaseError), ("r2", SingularCaseError),
        ("m", ValueError), ("M_mass", ValueError)])
    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_nan_or_negative_radius_or_mass_rejected(self, field, error, bad):
        fields = {"name": "bad", "m": 1.0, "M_mass": 1.0, "r1": 0.5,
                  "r2": 1.0, field: bad}
        with pytest.raises(error):
            GravityScaleCase(**fields)


class TestOracle:
    def test_zero_mass_gives_zero(self):
        case = GravityScaleCase.from_lambda("zero", 0.0, 1.0, 0.5)
        assert alpha_oracle(case, C) == 0.0

    def test_symbolic_reduction_at_lambda_half(self):
        # |F(r2)-F(r1)| / |r2-r1| reduces to G m M (r1+r2) / (r1^2 r2^2)
        m, r1 = 2.5, 0.7
        case = GravityScaleCase(name="red", m=m, M_mass=m, r1=r1, r2=2 * r1)
        reduced = (C.l_P * C.G**2 * m**2 * (case.r1 + case.r2)
                   / (C.c**4 * case.r1**2 * case.r2**2))
        assert alpha_oracle(case, C) == pytest.approx(reduced, rel=1e-12)

    def test_planck_point_order_one(self):
        case = GravityScaleCase.from_lambda("planck", C.m_P, 2 * C.l_P, 0.5)
        assert 0.1 <= alpha_oracle(case, C) <= 10.0

    def test_unequal_masses_supported(self):
        case = GravityScaleCase(name="uneq", m=1.0, M_mass=3.0, r1=1.0, r2=2.0)
        sym = GravityScaleCase(name="sym", m=math.sqrt(3.0),
                               M_mass=math.sqrt(3.0), r1=1.0, r2=2.0)
        assert alpha_oracle(case, C) == pytest.approx(alpha_oracle(sym, C),
                                                      rel=1e-12)

    def test_equal_radii_singular(self):
        case = GravityScaleCase(name="sing", m=1.0, M_mass=1.0, r1=1.0, r2=1.0)
        with pytest.raises(SingularCaseError):
            alpha_oracle(case, C)

    @pytest.mark.parametrize("r2, lam", [(1e-300, 2.0), (1.0, 1e300)])
    def test_case_beyond_double_range_singular(self, r2, lam):
        # r1**2 underflows to 0 (division by zero) or lambda**3 overflows
        case = GravityScaleCase.from_lambda("far", 1.0, r2, lam)
        with pytest.raises(SingularCaseError, match="range of a double"):
            scale_sweep([case], C)

    @pytest.mark.parametrize("M_mass", [None, 1e20])
    def test_non_finite_alpha_singular(self, M_mass):
        # G m M overflows: the oracle is inf - inf = NaN; m c^2 is inf
        case = GravityScaleCase.from_lambda("heavy", 1e300, 1.0, 2.0,
                                            M_mass=M_mass)
        with pytest.raises(SingularCaseError, match="range of a double"):
            scale_sweep([case], C)


class TestSweep:
    def test_default_sweep_expectations_pass(self):
        table = scale_sweep(default_sweep_cases(C), C)
        assert table.passed
        by_name = {r.name: r for r in table.rows}
        for name in ("electron-atomic", "proton-nuclear", "kilogram-metre",
                     "earth"):
            assert by_name[name].alpha_oracle < 1e-30
        assert 0.1 <= by_name["planck"].alpha_oracle <= 10.0
        # both density conventions present so the discrepancy is visible
        assert "planck/r2-density" in by_name

    def test_zero_mass_sweep_all_zero(self):
        cases = [GravityScaleCase.from_lambda(f"z{i}", 0.0, float(i), 0.5)
                 for i in range(1, 4)]
        table = scale_sweep(cases, C)
        assert all(r.alpha_oracle == 0.0 for r in table.rows)
        assert all(r.alpha_formula == 0.0 for r in table.rows)

    def test_rows_hold_their_case(self):
        cases = default_sweep_cases(C)
        table = scale_sweep(cases, C)
        assert [f.name for f in dataclasses.fields(table.rows[0])] == [
            "case", "alpha_formula", "alpha_oracle", "ratio",
            "expectation_ok"]
        assert [r.case for r in table.rows] == cases
        assert [r.name for r in table.rows] == [c.name for c in cases]

    def test_r2_density_cases_differ_only_in_name_and_convention(self):
        cases = default_sweep_cases(C)
        assert cases[::2] == default_sweep_cases(C, both_conventions=False)
        for c, r2 in zip(cases[::2], cases[1::2]):
            assert r2 == dataclasses.replace(
                c, name=c.name + "/r2-density", density_convention="r2")

    def test_expectation_is_an_inclusive_interval(self):
        case = GravityScaleCase.from_lambda("kilogram-metre", 1.0, 1.0, 0.5)
        a = alpha_oracle(case, C)
        b = math.nextafter(a, math.inf)
        for expect, ok in (((a, a), True), ((b, b), False)):
            row, = scale_sweep([dataclasses.replace(case, expect=expect)],
                               C).rows
            assert row.expectation_ok is ok

    def test_csv_schema(self, tmp_path):
        table = scale_sweep(default_sweep_cases(C, both_conventions=False), C)
        out = tmp_path / "sweep.csv"
        table.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == ("name,m_kg,M_kg,r1_m,r2_m,lambda,"
                          "alpha_formula,alpha_oracle,ratio")


class TestInvariants:
    def test_ratio_mass_independent_and_scale_invariant(self):
        lam = 0.5
        ratios = []
        for m in (1e-20, 1.0, 1e20):
            for decade in range(7):
                r2 = 10.0 ** (decade - 3)
                case = GravityScaleCase.from_lambda("g", m, r2, lam)
                ratios.append(alpha_closed_form(case, C) / alpha_oracle(case, C))
        ratios = np.array(ratios)
        assert np.all(np.abs(ratios / ratios[0] - 1.0) < 1e-10)

    def test_alpha_monotone_in_radius_and_mass(self):
        radii = np.logspace(-3, 3, 13)
        alphas = [alpha_oracle(GravityScaleCase.from_lambda("r", 1.0, r, 0.5), C)
                  for r in radii]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        masses = np.logspace(-3, 3, 13)
        alphas_m = [alpha_oracle(GravityScaleCase.from_lambda("m", m, 1.0, 0.5), C)
                    for m in masses]
        assert all(a < b for a, b in zip(alphas_m, alphas_m[1:]))

    def test_unit_system_invariance(self):
        # CGS and an arbitrary rescaled system must reproduce alpha exactly
        case_si = GravityScaleCase.from_lambda("si", 2.0, 3.0, 0.5)
        a_si_f = alpha_closed_form(case_si, C)
        a_si_o = alpha_oracle(case_si, C)
        for length, mass, time in [(100.0, 1000.0, 1.0), (7.5, 0.02, 3600.0)]:
            # factors are new units per SI unit: G is L^3 M^-1 T^-2, c is
            # L T^-1 and hbar is M L^2 T^-1
            const2 = PhysicalConstants(
                G=C.G * length**3 / (mass * time**2),
                c=C.c * length / time,
                hbar=C.hbar * mass * length**2 / time)
            case2 = GravityScaleCase.from_lambda(
                "scaled", 2.0 * mass, 3.0 * length, 0.5)
            assert alpha_closed_form(case2, const2) == pytest.approx(
                a_si_f, rel=1e-12)
            assert alpha_oracle(case2, const2) == pytest.approx(
                a_si_o, rel=1e-12)
