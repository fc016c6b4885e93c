"""Phase-space types and Randers structures on a flat chart.

The configuration chart is a single global ``R^{8N}`` (N molecules, one
8-block of position/velocity coordinates each).  Drift fields carry a
certified componentwise sup bound strictly below one; the structures in
this module make that bound and the momentum-cone condition
runtime-checkable.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

BLOCK_DIM = 8


class GeometryError(Exception):
    pass


class FieldEvaluationError(GeometryError):
    """Drift field produced a non-finite value."""


class ConeViolationError(GeometryError):
    """Momentum covector lies outside the time-like cone."""


class StencilError(GeometryError):
    """A finite-difference stencil point left the time-like cone."""


@dataclass(frozen=True)
class PhasePoint:
    """State (u, p) of N molecules; both vectors have length 8N."""

    u: np.ndarray
    p: np.ndarray
    n_molecules: int

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "p", p)
        if self.n_molecules < 1:
            raise ValueError("n_molecules must be a positive integer")
        dim = BLOCK_DIM * self.n_molecules
        if u.shape != (dim,) or p.shape != (dim,):
            raise ValueError(
                f"u and p must both have shape ({dim},) for N={self.n_molecules}; "
                f"got {u.shape} and {p.shape}"
            )
        if not (np.isfinite(u).all() and np.isfinite(p).all()):
            raise ValueError("phase point has non-finite components")

    @property
    def dim(self) -> int:
        return BLOCK_DIM * self.n_molecules


@dataclass(frozen=True)
class RandersField:
    """Drift field beta with a certified componentwise bound and a metric eta.

    ``beta`` must accept arrays of shape ``(..., dim)`` and return the same
    shape.  ``eta = None`` means the Euclidean identity without ever
    materializing it (the metric only enters the geometry operations, and
    flows at large 8N would otherwise pay a dim^2 allocation).  ``vjp``
    (optional, analytic) maps a single point ``u`` and covector ``p`` to
    ``J(u)^T p`` with ``J[k, i] = d beta_k / d u_i``, never forming ``J``.
    ``scalar_map`` is set exactly by the componentwise families (drift
    acting coordinate by coordinate) and lets ensemble code apply the drift
    to arbitrarily shaped coordinate arrays.
    """

    beta: Callable
    beta_bound: float
    eta: np.ndarray | None
    dim: int
    vjp: Callable | None = None
    scalar_map: Callable | None = None
    euclidean_eta: bool = True

    def __post_init__(self):
        if not 0.0 < self.beta_bound < 1.0:
            raise ValueError("beta_bound must lie in (0, 1) (Randers condition)")
        if self.eta is None:
            return
        eta = np.asarray(self.eta, dtype=float)
        object.__setattr__(self, "eta", eta)
        if eta.shape != (self.dim, self.dim):
            raise ValueError(f"eta must be ({self.dim}, {self.dim})")
        if not np.allclose(eta, eta.T, rtol=0.0, atol=1e-12):
            raise ValueError("eta must be symmetric")
        if self.euclidean_eta and np.linalg.eigvalsh(eta)[0] <= 0.0:
            raise ValueError("Euclidean-signature eta must be positive definite")

    def vjp_at(self, u: np.ndarray, p: np.ndarray) -> np.ndarray:
        """J(u)^T p: the analytic ``vjp`` when available, otherwise through
        the central-difference Jacobian."""
        if self.vjp is not None:
            return self.vjp(u, p)
        return self.jacobian_at(u).T @ p

    def jacobian_at(self, u: np.ndarray, step: float | None = None) -> np.ndarray:
        """Central-difference Jacobian ``J[k, i] = d beta_k / d u_i``."""
        u = np.asarray(u, dtype=float)
        h = step if step is not None else 1e-6 * (1.0 + np.linalg.norm(u))
        eye = np.eye(self.dim)
        cols = [(self.beta(u + h * eye[i]) - self.beta(u - h * eye[i])) / (2 * h)
                for i in range(self.dim)]
        return np.stack(cols, axis=1)


@dataclass(frozen=True)
class HamiltonRandersStructure:
    """Randers field plus the tolerance defining the time-like cone."""

    field: RandersField
    cone_tolerance: float = 1e-12

    def __post_init__(self):
        if self.cone_tolerance <= 0.0:
            raise ValueError("cone_tolerance must be positive")


@dataclass(frozen=True)
class RandersValidationReport:
    passed: bool
    max_abs_component: float
    argmax_point: np.ndarray
    argmax_index: int
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# field families


def zero_field(dim: int, eta: np.ndarray | None = None) -> RandersField:
    return RandersField(
        beta=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        beta_bound=1e-12,
        eta=eta,
        dim=dim,
        vjp=lambda u, p: np.zeros_like(p),
        scalar_map=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def constant_field(value, dim: int, eta: np.ndarray | None = None) -> RandersField:
    """Constant drift; ``value`` is a scalar (every component) or a dim-vector."""
    vec = np.broadcast_to(np.asarray(value, dtype=float), (dim,)).copy()
    bound = float(np.max(np.abs(vec)))
    if bound >= 1.0:
        raise ValueError("constant field violates the Randers condition")
    scalar = None
    if np.ndim(value) == 0:
        c = float(value)
        scalar = lambda x: np.full_like(np.asarray(x, dtype=float), c)
    return RandersField(
        beta=lambda u: np.broadcast_to(vec, np.shape(u)).copy(),
        beta_bound=max(bound, 1e-12),
        eta=eta,
        dim=dim,
        vjp=lambda u, p: np.zeros_like(p),
        scalar_map=scalar,
    )


def tanh_field(dim: int, amplitude: float, claimed_bound: float | None = None,
               eta: np.ndarray | None = None) -> RandersField:
    """beta_i(u) = amplitude * tanh(u_i); sup of each component is |amplitude|."""
    a = float(amplitude)
    bound = claimed_bound if claimed_bound is not None else abs(a)

    def vjp(u, p):
        t = np.tanh(np.asarray(u, dtype=float))
        return a * (1.0 - t * t) * p

    return RandersField(
        beta=lambda u: a * np.tanh(np.asarray(u, dtype=float)),
        beta_bound=bound,
        eta=eta,
        dim=dim,
        vjp=vjp,
        scalar_map=lambda x: a * np.tanh(np.asarray(x, dtype=float)),
    )


def linear_field(matrix: np.ndarray, claimed_bound: float = 0.9,
                 eta: np.ndarray | None = None) -> RandersField:
    """beta(u) = A u.  Unbounded globally; the claimed bound certifies the
    operating domain only and must be checked with validate_randers there."""
    a = np.asarray(matrix, dtype=float)
    dim = a.shape[0]
    if a.shape != (dim, dim):
        raise ValueError("matrix must be square")
    return RandersField(
        beta=lambda u: np.asarray(u, dtype=float) @ a.T,
        beta_bound=claimed_bound,
        eta=eta,
        dim=dim,
        vjp=lambda u, p: a.T @ p,
    )


# ---------------------------------------------------------------------------
# operations


def validate_randers(field: RandersField, samples: int, seed: int,
                     sample_radius: float = 10.0) -> RandersValidationReport:
    """Empirical check of the componentwise Randers condition |beta_i| < 1.

    Samples uniform points in [-sample_radius, sample_radius]^dim, records
    the maximizing point, and passes iff the max component stays below one.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-sample_radius, sample_radius, size=(samples, field.dim))
    vals = np.asarray(field.beta(pts), dtype=float)
    if vals.shape != pts.shape:
        raise FieldEvaluationError(
            f"beta returned shape {vals.shape}, expected {pts.shape}")
    bad = ~np.isfinite(vals)
    if bad.any():
        k = int(np.argwhere(bad.any(axis=1))[0][0])
        raise FieldEvaluationError(
            f"non-finite field output at sample {k}: u={pts[k]!r}")
    flat = int(np.argmax(np.abs(vals)))
    row, col = divmod(flat, field.dim)
    max_abs = float(np.abs(vals[row, col]))
    return RandersValidationReport(
        passed=bool(max_abs < 1.0),
        max_abs_component=max_abs,
        argmax_point=pts[row].copy(),
        argmax_index=col,
        samples=samples,
        seed=seed,
    )


def _alpha_squared(hrs: HamiltonRandersStructure, theta: np.ndarray) -> float:
    theta = np.asarray(theta, dtype=float)
    if hrs.field.eta is None:
        return float(theta @ theta)
    return float(theta @ hrs.field.eta @ theta)


def randers_function(hrs: HamiltonRandersStructure, u: np.ndarray,
                     theta: np.ndarray) -> float:
    """F(u, theta) = alpha(u, theta) + beta(u, theta) on the time-like cone.

    alpha = sqrt(theta^T eta theta); beta pairs the drift vector with the
    momentum covector.  Raises ConeViolationError when alpha^2 fails strict
    positivity at the structure's tolerance.
    """
    a2 = _alpha_squared(hrs, theta)
    if a2 <= hrs.cone_tolerance:
        raise ConeViolationError(
            f"theta outside the time-like cone: alpha^2 = {a2:.3e} "
            f"<= tolerance {hrs.cone_tolerance:.1e}")
    drift = np.asarray(hrs.field.beta(np.asarray(u, dtype=float)), dtype=float)
    return float(np.sqrt(a2) + drift @ np.asarray(theta, dtype=float))


def fundamental_tensor(hrs: HamiltonRandersStructure, u: np.ndarray,
                       theta: np.ndarray, h: float | None = None) -> np.ndarray:
    """g_ij = (1/2) d^2 F^2 / d theta_i d theta_j by central differences.

    Symmetry is enforced by averaging with the transpose; a cone violation
    at any stencil point raises StencilError.
    """
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    d = theta.size
    if h is None:
        h = 1e-4 * (1.0 + np.linalg.norm(theta))
    if h <= 0:
        raise ValueError("finite-difference step must be positive")

    def phi(th):
        try:
            return 0.5 * randers_function(hrs, u, th) ** 2
        except ConeViolationError as exc:
            raise StencilError(f"stencil point left the cone: {exc}") from exc

    g = np.empty((d, d))
    phi0 = phi(theta)
    eye = np.eye(d)
    for i in range(d):
        ei = h * eye[i]
        g[i, i] = (phi(theta + ei) - 2.0 * phi0 + phi(theta - ei)) / h**2
        for j in range(i + 1, d):
            ej = h * eye[j]
            gij = (phi(theta + ei + ej) - phi(theta + ei - ej)
                   - phi(theta - ei + ej) + phi(theta - ei - ej)) / (4.0 * h**2)
            g[i, j] = gij
            g[j, i] = gij
    return 0.5 * (g + g.T)
