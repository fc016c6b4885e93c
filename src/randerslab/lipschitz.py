"""Numerical Lipschitz analysis on compact phase-space boxes.

Pair-sampling difference quotients give certified lower bounds on a
Lipschitz constant.  The radial decomposition splits a
box-Lipschitz Hamiltonian into a globally 1-Lipschitz piece
``R(rho) H(clamp(z))`` and a remainder supported off the box.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import H_BOUND
from .runio import NumericError

# Profile tuning: see tune_profile.
TUNE_TARGET = 1.0
TUNE_SLACK = 0.05
MAX_BISECTIONS = 40
N_IDENTITY_CHECK = 2000  # sample points checking the decomposition identity


class LipschitzError(NumericError):
    pass


class EstimationError(LipschitzError):
    """All sampled pairs were degenerate, the box diameter overflows, or
    the estimate is not finite."""


class ProfileError(LipschitzError):
    """Scale profile violates R(0) = 1 or positivity."""


def _batch(f: Callable) -> Callable:
    """Wrap f, which maps (n, d) arrays to (n,) arrays, so that it also
    takes a single 1-d point; any other output shape raises LipschitzError."""
    def call(z):
        z = np.asarray(z, dtype=float)
        single = z.ndim == 1
        pts = z[None, :] if single else z
        out = np.asarray(f(pts), dtype=float)
        if out.shape != (pts.shape[0],):
            raise LipschitzError(f"function returned shape {out.shape} for "
                                 f"points {pts.shape}; expected ({len(pts)},)")
        return float(out[0]) if single else out
    return call


@dataclass(frozen=True)
class BoxMetric:
    """Euclidean or block-weighted distance on (u, p) phase space.

    ``weighted`` scales the first half of the coordinates by u_scale and
    the second half by p_scale before taking the Euclidean length.
    """

    kind: str = "euclidean"
    u_scale: float = 1.0
    p_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("euclidean", "weighted"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "weighted" and (self.u_scale <= 0 or self.p_scale <= 0):
            raise ValueError("metric scales must be positive")

    def scales(self, dim: int) -> np.ndarray:
        if self.kind == "euclidean":
            return np.ones(dim)
        half = dim // 2
        return np.concatenate([np.full(half, self.u_scale),
                               np.full(dim - half, self.p_scale)])

    def distance(self, z1, z2) -> np.ndarray:
        z1 = np.asarray(z1, dtype=float)
        z2 = np.asarray(z2, dtype=float)
        # scaled and squared in place: the expression form held one more
        # temporary of the points' size, which set a pair draw's peak
        t = z1 - z2
        t *= self.scales(z1.shape[-1])
        t *= t
        return np.sqrt(np.sum(t, axis=-1))


EUCLIDEAN = BoxMetric()


@dataclass(frozen=True)
class CompactBox:
    """Axis-aligned compact domain in R^{2 dim(u)} with a declared metric."""

    lower: np.ndarray
    upper: np.ndarray
    metric: BoxMetric = EUCLIDEAN

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("box is empty: need lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def diameter(self) -> float:
        return float(self.metric.distance(self.lower, self.upper))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def enlarge(self, factor: float) -> "CompactBox":
        c, half = self.center, 0.5 * (self.upper - self.lower)
        return CompactBox(lower=c - factor * half, upper=c + factor * half,
                          metric=self.metric)

    @staticmethod
    def cube(dim: int, half_width: float = 1.0,
             metric: BoxMetric = EUCLIDEAN) -> "CompactBox":
        lo = np.full(dim, -half_width)
        return CompactBox(lower=lo, upper=lo + 2 * half_width, metric=metric)


def project_to_box(z, box: CompactBox):
    """Nearest box point (componentwise clamp) and its metric distance.

    Interior points return themselves with distance zero; the clamp is the
    exact minimizer for the Euclidean and diagonal-weighted metrics.
    """
    z = np.asarray(z, dtype=float)
    zbar = np.clip(z, box.lower, box.upper)
    rho = box.metric.distance(z, zbar)
    if z.ndim == 1:
        return zbar, float(rho)
    return zbar, rho


@dataclass(frozen=True)
class LipschitzEstimate:
    constant_hat: float
    pairs_or_points: int

    def __post_init__(self):
        if not math.isfinite(self.constant_hat) or self.constant_hat < 0:
            raise ValueError("constant_hat must be finite and >= 0")


def estimate_lipschitz(f, domain: CompactBox, n_pairs: int,
                       seed: int) -> LipschitzEstimate:
    """Estimate the Lipschitz constant of f on the box: the max difference
    quotient over ``n_pairs`` random pairs plus gradient-aligned
    short-separation pairs of length 1e-4 * diameter; a lower bound on the
    true constant by construction."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    sample = _PairSample.draw(_batch(f), domain, n_pairs, seed)
    return LipschitzEstimate(constant_hat=sample.estimate(lambda v: v),
                             pairs_or_points=int(n_pairs + len(sample.pts)))


@dataclass(frozen=True)
class _PairSample:
    """What one ``(domain, n_pairs, seed)`` pair-sampling draw fixes, with a
    point map ``g`` evaluated once at its points.

    ``estimate(combine)`` is the pair-sampling estimate of ``combine(g(z))``.
    Only the gradient-aligned short pairs, whose direction depends on that
    function, are evaluated anew, so one draw serves many functions that
    share ``g``.  The sample keeps values, the refinement points and no
    ``(n_pairs, dim)`` point array.
    """

    domain: CompactBox
    g: Callable
    d: np.ndarray        # distances of the kept (non-degenerate) pairs
    ends: tuple | None   # g at the first and second ends of the kept pairs
    pts: np.ndarray      # refinement points, (n_ref, dim)
    delta: float         # short-pair length
    probes: list         # g at pts +- (delta / 8) e_i, for each coordinate i

    @classmethod
    def draw(cls, g, domain: CompactBox, n_pairs: int,
             seed: int) -> "_PairSample":
        # a box whose diameter overflows gives infinite pair distances,
        # hence zero quotients, and NaN probe offsets: refuse it first
        with np.errstate(over="ignore"):  # reported below
            delta = 1e-4 * domain.diameter
        if not math.isfinite(delta):
            raise EstimationError("the box diameter overflows the double "
                                  "range")
        rng = np.random.default_rng(seed)
        # each end is evaluated before the next array is drawn and dropped
        # after its last use, so at most two point arrays are alive at once
        z1 = domain.sample(n_pairs, rng)
        a = g(z1)
        z2 = domain.sample(n_pairs, rng)
        d = domain.metric.distance(z1, z2)
        del z1
        b = g(z2)
        del z2
        keep = d > 0.0
        ends = None
        if keep.any():
            ends = (a, b) if keep.all() else (a[..., keep], b[..., keep])
        # short-separation refinement points, kept off the faces so the
        # aligned pairs stay inside the domain
        inner = CompactBox(lower=domain.lower + delta,
                           upper=domain.upper - delta,
                           metric=domain.metric) \
            if np.all(domain.upper - domain.lower > 2 * delta) else domain
        pts = inner.sample(min(256, n_pairs), rng)
        probes = [(g(pts + e), g(pts - e))
                  for e in delta / 8.0 * np.eye(pts.shape[1])]
        return cls(domain=domain, g=g, d=d[keep], ends=ends, pts=pts,
                   delta=delta, probes=probes)

    def estimate(self, combine: Callable) -> float:
        quotients = []
        if self.ends is not None:
            a, b = self.ends
            quotients.append(np.abs(combine(a) - combine(b)) / self.d)

        # Short-separation refinement: walk a small step along the estimated
        # steepest direction so aligned pairs probe the local slope.
        metric, delta = self.domain.metric, self.delta
        # central differences of combine(g) over the probes
        grads = np.stack([(combine(plus) - combine(minus)) / (2 * (delta / 8.0))
                          for plus, minus in self.probes], axis=1)
        dirs = grads / (metric.scales(self.domain.dim) ** 2)
        norms = metric.distance(dirs, 0.0 * dirs)
        ok = norms > 0.0
        if ok.any():
            v = dirs[ok] / norms[ok, None]
            za = self.pts[ok] - 0.5 * delta * v
            zb = self.pts[ok] + 0.5 * delta * v
            dd = metric.distance(za, zb)
            good = dd > 0.0
            if good.any():
                quotients.append(np.abs(combine(self.g(za[good]))
                                        - combine(self.g(zb[good])))
                                 / dd[good])

        if not quotients:
            raise EstimationError("all sampled pairs were degenerate")
        best = float(np.max(np.concatenate(quotients)))
        if not math.isfinite(best):
            raise EstimationError(f"largest difference quotient is {best}; the "
                                  "box or the function overflows the double range")
        return best


@dataclass(frozen=True)
class ScaledFunction:
    """f divided by max(1, estimated constant).  Rescaling the Hamiltonian
    only rescales time: motion equations and the Randers condition are
    unchanged."""

    base: Callable
    scale: float

    def __call__(self, z):
        return self.base(z) / self.scale


def normalize_to_one_lipschitz(f,
                               estimate: LipschitzEstimate) -> ScaledFunction:
    m = max(1.0, estimate.constant_hat)
    return ScaledFunction(base=_batch(f), scale=m)


@dataclass(frozen=True)
class ScaleProfile:
    """Positive nonincreasing radial weight R(rho) = 1 / (1 + rho / rho0),
    so R(0) = 1."""

    rho0: float

    def __post_init__(self):
        if not self.rho0 > 0:  # NaN fails too
            raise ProfileError("rho0 must be positive")

    def __call__(self, rho):
        return 1.0 / (1.0 + np.asarray(rho, dtype=float) / self.rho0)


@dataclass
class HamiltonianDecomposition:
    """H = lipschitz_part + matter_part with the construction recorded.

    The construction is not unique; (box, metric, profile, rho0) identify
    this instance.
    """

    box: CompactBox
    profile: ScaleProfile
    hamiltonian: Callable
    global_estimate: float
    tuning_converged: bool
    identity_max_abs_residual: float
    note: str = ""

    def lipschitz_part(self, z):
        zbar, rho = project_to_box(z, self.box)
        return self.profile(rho) * self.hamiltonian(zbar)

    def matter_part(self, z):
        return self.hamiltonian(z) - self.lipschitz_part(z)


def _part_estimate(h, box: CompactBox, n_pairs: int, seed: int) -> Callable:
    """Global sampled constant of R(rho) h(clamp(z)), as a function of the
    profile R.

    Estimates over the far domain ``box.enlarge(3.0)``, over a thin shell
    around the box (where the radial slope of the profile lives; far
    samples in high dimension never land there), and over the box itself,
    and takes the max.  The three pair samples, with rho and h(clamp(z))
    at their points, are drawn once; each profile then only forms R(rho) h
    and evaluates its own gradient-aligned short pairs.
    """
    hb = _batch(h)

    def split(z):
        zbar, rho = project_to_box(z, box)
        return np.stack((rho, hb(zbar)))

    samples = [_PairSample.draw(split, dom, n_pairs, seed)
               for dom in (box.enlarge(3.0), box.enlarge(1.15), box)]

    def estimate(profile) -> float:
        return max(s.estimate(lambda v: profile(v[0]) * v[1]) for s in samples)
    return estimate


def tune_profile(h, box: CompactBox, n_pairs: int = 4000, seed: int = 0):
    """Smallest rho0 (by at most ``MAX_BISECTIONS`` bisection steps) whose
    global sampled constant of the decomposed Lipschitz piece drops below
    ``TUNE_TARGET``.

    The predicate uses one fixed set of samples, drawn once from the seed,
    for every rho0, so the search is deterministic, and each rho0 is
    estimated at most once.  When even a flat profile cannot reach the
    target (the input was normalized against its own sampled estimate, so
    fresh samples may sit a few percent above it), the statistical
    ``TUNE_SLACK`` is allowed before the tuning is reported as failed.
    """
    part = _part_estimate(h, box, n_pairs, seed)
    diam = box.diameter

    @functools.cache
    def global_est(rho0):
        return part(ScaleProfile(rho0=rho0))

    def attempt(level):
        lo = 1e-3 * diam
        est_lo = global_est(lo)
        if est_lo <= level:
            return lo, est_lo, True
        hi = diam
        est_hi = global_est(hi)
        grow = 0
        while est_hi > level:
            hi *= 4.0
            est_hi = global_est(hi)
            grow += 1
            if grow > 12:
                return hi, est_hi, False
        for _ in range(MAX_BISECTIONS):
            mid = math.sqrt(lo * hi)
            if global_est(mid) <= level:
                hi = mid
            else:
                lo = mid
            if hi / lo < 1.05:
                break
        return hi, global_est(hi), True

    rho0, est, ok = attempt(TUNE_TARGET)
    if not ok and est <= TUNE_TARGET + TUNE_SLACK:
        # the strict target is statistically unreachable (h was normalized
        # against its own sampled estimate); tune at the slack level instead
        rho0, est, ok = attempt(TUNE_TARGET + TUNE_SLACK)
    return rho0, est, ok


def radial_decomposition(h, box: CompactBox, scale_profile: ScaleProfile | None = None,
                         n_pairs: int = 4000,
                         seed: int = 0) -> HamiltonianDecomposition:
    """Split h into R(rho) h(clamp(z)) plus a remainder vanishing on the box.

    ``h`` should already be 1-Lipschitz on the box (normalize first).  With
    no profile given, rho0 is auto-tuned until the sampled global constant
    of the Lipschitz piece first drops below 1.
    """
    hb = _batch(h)
    if scale_profile is None:
        rho0, est, converged = tune_profile(hb, box, n_pairs=n_pairs,
                                            seed=seed)
        profile = ScaleProfile(rho0=rho0)
        if not converged:
            note = ("auto-tuning failed to reach a sampled constant <= 1; "
                    f"best estimate {est:.4f} at rho0 = {rho0:.4g}")
        elif est > TUNE_TARGET:
            note = (f"tuned within statistical slack: sampled constant "
                    f"{est:.4f} against fresh samples")
        else:
            note = ""
    else:
        profile = scale_profile
        est = _part_estimate(hb, box, n_pairs, seed)(profile)
        converged = est <= TUNE_TARGET + TUNE_SLACK
        note = "" if converged else (
            f"declared profile leaves a sampled global constant {est:.4f}")

    decomp = HamiltonianDecomposition(
        box=box, profile=profile, hamiltonian=hb,
        global_estimate=float(est), tuning_converged=bool(converged),
        identity_max_abs_residual=0.0, note=note)

    rng = np.random.default_rng(seed + 1)
    z = box.enlarge(3.0).sample(N_IDENTITY_CHECK, rng)
    resid = np.abs(hb(z) - (decomp.lipschitz_part(z) + decomp.matter_part(z)))
    decomp.identity_max_abs_residual = float(resid.max())
    return decomp


@dataclass(frozen=True)
class ConstraintSplitRow:
    t: float
    h: float
    lipschitz_part: float
    matter_part: float
    passed: bool


@dataclass(frozen=True)
class ConstraintSplitReport:
    rows: tuple
    passed: bool
    sign_note: str


def check_constraint_split(decomp: HamiltonianDecomposition,
                           snapshots) -> ConstraintSplitReport:
    """Constraint check at equilibrium snapshots.

    The flow Hamiltonian (with its vanishing equilibrium prefactor) must
    satisfy |H| <= H_BOUND * (1 + |p|) at each snapshot; the decomposition's
    two pieces are evaluated at the same phase-space point without that
    suppression and reported, since each may individually differ from zero.
    """
    rows = []
    n_pos_matter = 0
    n_lip_nonpos = 0
    for s in snapshots:
        z = np.concatenate([s.point.u, s.point.p])
        lip = float(decomp.lipschitz_part(z))
        mat = float(decomp.matter_part(z))
        ok = abs(s.h_value) <= H_BOUND * (1.0 + float(np.linalg.norm(s.point.p)))
        if mat > 0:
            n_pos_matter += 1
            if lip <= 0:
                n_lip_nonpos += 1
        rows.append(ConstraintSplitRow(t=s.t, h=s.h_value, lipschitz_part=lip,
                                       matter_part=mat, passed=ok))
    if n_pos_matter:
        sign_note = (f"{n_lip_nonpos}/{n_pos_matter} snapshots with positive "
                     "matter part have a nonpositive Lipschitz part")
    else:
        sign_note = "no snapshot had a positive matter part"
    return ConstraintSplitReport(rows=tuple(rows),
                                 passed=all(r.passed for r in rows),
                                 sign_note=sign_note)


def decomposition_report(decomp: HamiltonianDecomposition,
                         split: ConstraintSplitReport | None = None) -> dict:
    """JSON-ready report recording the full construction."""
    report = {
        "box": {"lower": decomp.box.lower.tolist(),
                "upper": decomp.box.upper.tolist()},
        "metric": {"kind": decomp.box.metric.kind,
                   "u_scale": decomp.box.metric.u_scale,
                   "p_scale": decomp.box.metric.p_scale},
        "profile": {"family": "inverse_linear", "rho0": decomp.profile.rho0},
        "lipschitz_estimate_global": decomp.global_estimate,
        "identity_max_abs_residual": decomp.identity_max_abs_residual,
        "tuning_converged": decomp.tuning_converged,
        "note": decomp.note,
        "snapshots": [],
    }
    if split is not None:
        report["snapshots"] = [
            {"t": r.t, "H": r.h, "lipschitz_part": r.lipschitz_part,
             "matter_part": r.matter_part} for r in split.rows]
        report["constraint_passed"] = split.passed
        report["sign_note"] = split.sign_note
    return report
