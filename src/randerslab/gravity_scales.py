"""Newtonian force-difference ratios against Planck references.

alpha measures the change of the Newtonian attraction between two radii in
Planck-force units per Planck length of separation change; alpha << 1 marks
the regime where gravity acts as a 1-Lipschitz interaction, and alpha of
order one appears only at the Planck point.
"""

import math
from dataclasses import dataclass, replace

from .runio import NumericError, atomic_write_csv, atomic_write_json


class GravityError(NumericError):
    pass


class SingularCaseError(GravityError):
    """r1 = r2, a radius that is not positive (NaN included), or a case
    whose forces or alpha leave the range of a double: the
    finite-difference ratio is undefined."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Base constants (G, c, hbar) and the Planck quantities derived from
    them."""

    G: float
    c: float
    hbar: float

    @property
    def l_P(self) -> float:
        return math.sqrt(self.hbar * self.G / self.c**3)

    @property
    def F_P(self) -> float:
        return self.c**4 / self.G

    @property
    def m_P(self) -> float:
        return math.sqrt(self.hbar * self.c / self.G)

    @property
    def E_P(self) -> float:
        return self.m_P * self.c**2

    @property
    def D_P(self) -> float:
        return self.m_P / self.l_P**3


def codata2018() -> PhysicalConstants:
    """CODATA 2018: G in m^3 kg^-1 s^-2, c in m/s, hbar in J s."""
    return PhysicalConstants(G=6.67430e-11, c=299792458.0,
                             hbar=1.054571817e-34)


@dataclass(frozen=True)
class GravityScaleCase:
    """Two-body case at radii r1 = lambda * r2 with a density convention.

    ``expect`` optionally carries a sweep assertion: an inclusive interval
    (low, high) that the oracle value must lie in.
    """

    name: str
    m: float
    M_mass: float
    r1: float
    r2: float
    density_convention: str = "r1"
    expect: tuple | None = None

    def __post_init__(self):
        # written so that NaN fails; lambda * r2 may underflow to 0
        if not (self.r1 > 0 and self.r2 > 0):
            raise SingularCaseError("radii must be positive")
        if not (self.m >= 0 and self.M_mass >= 0):
            raise ValueError("masses must be nonnegative")
        if self.density_convention not in ("r1", "r2"):
            raise ValueError("density_convention must be 'r1' or 'r2'")

    @property
    def lam(self) -> float:
        return self.r1 / self.r2

    @property
    def density_radius(self) -> float:
        return self.r1 if self.density_convention == "r1" else self.r2

    @classmethod
    def from_lambda(cls, name, m, r2, lam, M_mass=None,
                    density_convention="r1", expect=None):
        return cls(name=name, m=m, M_mass=m if M_mass is None else M_mass,
                   r1=lam * r2, r2=r2, density_convention=density_convention,
                   expect=expect)


def alpha_closed_form(case: GravityScaleCase,
                      constants: PhysicalConstants) -> float:
    """Compact ratio ((1 + lambda) / lambda^3) (D / D_P) (E / E_P).

    D = m / r^3 with r from the declared density convention and E = m c^2.
    Restricted to equal masses; the direct-force oracle has no such
    restriction.  The lambda^-3 prefactor is a declared convention of this
    compact form: exact force-difference algebra carries (1+lambda) lambda
    under the r1 density convention and (1+lambda)/lambda^2 under r2, so
    the compact form coincides with the direct ratio only at lambda = 1.
    The sweep emits both conventions and the oracle is the ground truth.
    """
    if case.m != case.M_mass:
        raise ValueError("closed form requires m = M_mass")
    lam = case.lam
    if lam <= 0:  # r1 / r2 underflows for a tiny r1 over a huge r2
        raise ValueError("lambda must be positive")
    density = case.m / case.density_radius**3
    energy = case.m * constants.c**2
    return ((1.0 + lam) / lam**3) * (density / constants.D_P) * (energy / constants.E_P)


def alpha_oracle(case: GravityScaleCase, constants: PhysicalConstants) -> float:
    """Direct evaluation of (|F(r2) - F(r1)| / F_P) / (|r2 - r1| / l_P)
    with F = G m M / r^2."""
    if case.r1 == case.r2:
        raise SingularCaseError("r1 = r2: separation change is zero")
    f1 = constants.G * case.m * case.M_mass / case.r1**2
    f2 = constants.G * case.m * case.M_mass / case.r2**2
    return (abs(f2 - f1) / constants.F_P) / (abs(case.r2 - case.r1) / constants.l_P)


def default_sweep_cases(constants: PhysicalConstants,
                        both_conventions: bool = True):
    """Named regimes from atomic to Planck scale, with sweep expectations."""
    m_e, r_bohr = 9.1093837015e-31, 5.29177210903e-11
    m_proton, r_nuc = 1.67262192369e-27, 1e-15
    m_earth, r_earth = 5.9722e24, 6.371e6
    base = [
        GravityScaleCase.from_lambda("electron-atomic", m_e, r_bohr, 0.5,
                                     expect=(0.0, 1e-30)),
        GravityScaleCase.from_lambda("proton-nuclear", m_proton, r_nuc, 0.5,
                                     expect=(0.0, 1e-30)),
        GravityScaleCase.from_lambda("kilogram-metre", 1.0, 1.0, 0.5,
                                     expect=(0.0, 1e-30)),
        GravityScaleCase.from_lambda("earth", m_earth, r_earth, 0.5,
                                     expect=(0.0, 1e-30)),
        GravityScaleCase.from_lambda("planck", constants.m_P,
                                     2.0 * constants.l_P, 0.5,
                                     expect=(0.1, 10.0)),
    ]
    if not both_conventions:
        return base
    return [case for c in base for case in (c, replace(
        c, name=c.name + "/r2-density", density_convention="r2"))]


@dataclass(frozen=True)
class SweepRow:
    """A case and what the sweep computed for it."""

    case: GravityScaleCase
    alpha_formula: float
    alpha_oracle: float
    ratio: float
    expectation_ok: bool

    @property
    def name(self) -> str:
        return self.case.name


@dataclass(frozen=True)
class SweepTable:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.expectation_ok for r in self.rows)

    def to_csv(self, path) -> None:
        header = ["name", "m_kg", "M_kg", "r1_m", "r2_m", "lambda",
                  "alpha_formula", "alpha_oracle", "ratio"]
        rows = ([r.case.name, r.case.m, r.case.M_mass, r.case.r1, r.case.r2,
                 r.case.lam, r.alpha_formula, r.alpha_oracle, r.ratio]
                for r in self.rows)
        atomic_write_csv(path, header, rows)


def scale_sweep(cases, constants: PhysicalConstants) -> SweepTable:
    """Evaluate formula and oracle for each case and check expectations."""
    rows = []
    for case in cases:
        equal = case.m == case.M_mass  # the closed form needs equal masses
        try:
            a_oracle = alpha_oracle(case, constants)
            a_formula = alpha_closed_form(case, constants) if equal else math.nan
        except ArithmeticError as exc:  # r**2 overflows, or underflows to 0
            raise SingularCaseError(
                f"case {case.name!r} leaves the range of a double: {exc}") from exc
        # G m M or m c^2 overflows to inf, and inf - inf is NaN
        if not math.isfinite(a_oracle) or (equal and not math.isfinite(a_formula)):
            raise SingularCaseError(
                f"case {case.name!r} leaves the range of a double: "
                f"alpha_oracle = {a_oracle!r}, alpha_formula = {a_formula!r}")
        ratio = a_formula / a_oracle if a_oracle > 0 else math.nan
        ok = case.expect is None or case.expect[0] <= a_oracle <= case.expect[1]
        rows.append(SweepRow(case, a_formula, a_oracle, ratio, ok))
    return SweepTable(rows=tuple(rows))


def constants_json(constants: PhysicalConstants, path) -> None:
    atomic_write_json(path, {
        "source": "CODATA 2018 (G, c, hbar); Planck quantities derived",
        "G_m3_kg-1_s-2": constants.G,
        "c_m_s-1": constants.c,
        "hbar_J_s": constants.hbar,
        "l_P_m": constants.l_P,
        "F_P_N": constants.F_P,
        "m_P_kg": constants.m_P,
        "E_P_J": constants.E_P,
        "D_P_kg_m-3": constants.D_P,
    })
