"""Phase-space types and Randers structures on a flat chart.

The configuration chart is a single global ``R^{8N}`` (N molecules, one
8-block of position/velocity coordinates each).  Drift fields carry a
certified componentwise sup bound strictly below one.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

BLOCK_DIM = 8


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
    """Drift field beta with a certified componentwise bound.

    ``beta`` must accept arrays of shape ``(..., dim)`` and return the same
    shape.  ``rate`` is Hamilton's rate on one phase point: ``rate(z)``
    overwrites the (2, dim) array ``z`` of ``u`` over ``p`` with
    ``beta(u)`` over ``-J(u)^T p``, ``J[k, i] = d beta_k / d u_i``, and
    returns ``z``, never forming ``J``.  ``scalar_map`` is set exactly by
    the componentwise families (drift acting coordinate by coordinate) and
    lets ensemble code apply the drift to arbitrarily shaped coordinate
    arrays: ``scalar_map(x)`` overwrites the float array ``x`` with
    ``beta(x)`` and returns it, so a march needs no fresh array per drift
    call; ``beta`` keeps its argument.
    """

    beta: Callable
    beta_bound: float
    dim: int
    rate: Callable
    scalar_map: Callable | None = None

    def __post_init__(self):
        if not 0.0 < self.beta_bound < 1.0:
            raise ValueError("beta_bound must lie in (0, 1) (Randers condition)")

    def jacobian_at(self, u: np.ndarray) -> np.ndarray:
        """Central-difference Jacobian ``J[k, i] = d beta_k / d u_i``, the
        reference the momentum half of ``rate`` is checked against."""
        u = np.asarray(u, dtype=float)
        h = 1e-6 * (1.0 + np.linalg.norm(u))
        eye = np.eye(self.dim)
        cols = [(self.beta(u + h * eye[i]) - self.beta(u - h * eye[i])) / (2 * h)
                for i in range(self.dim)]
        return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# field families


def zero_field(dim: int) -> RandersField:
    return constant_field(0.0, dim)


def constant_field(value: float, dim: int) -> RandersField:
    """beta_i(u) = value for every component."""
    c = float(value)

    def fill(x):
        x.fill(c)
        return x

    def rate(z):
        z[0].fill(c)
        z[1].fill(-0.0)  # -J^T p with J = 0
        return z

    return RandersField(
        beta=lambda x: np.full_like(np.asarray(x, dtype=float), c),
        beta_bound=max(abs(c), 1e-12),
        dim=dim,
        rate=rate,
        scalar_map=fill,
    )


def tanh_field(dim: int, amplitude: float) -> RandersField:
    """beta_i(u) = amplitude * tanh(u_i); sup of each component is |amplitude|."""
    a = float(amplitude)

    def drift(x, out=None):
        # scaled in place: one array per call (none given ``out``), the
        # same values as a * tanh(x)
        t = np.tanh(np.asarray(x, dtype=float), out=out)
        t *= a
        return t

    def rate(z):
        # one tanh for both halves; p times -(a (1 - t^2)) rounds as
        # -(a (1 - t^2) p), signs of zeros included
        u, p = z
        t = np.tanh(u)
        np.multiply(t, a, out=u)
        t *= t
        np.subtract(1.0, t, out=t)
        t *= -a
        p *= t
        return z

    return RandersField(
        beta=drift,
        beta_bound=abs(a),
        dim=dim,
        rate=rate,
        scalar_map=lambda x: drift(x, out=x),
    )


def linear_field(matrix: np.ndarray) -> RandersField:
    """beta(u) = A u.  Unbounded globally; the claimed bound 0.9 holds only
    on the operating domain where the caller keeps u."""
    a = np.asarray(matrix, dtype=float)
    dim = a.shape[0]
    if a.shape != (dim, dim):
        raise ValueError("matrix must be square")

    def rate(z):
        q = a.T @ z[1]
        z[0] = z[0] @ a.T
        np.negative(q, out=z[1])
        return z

    return RandersField(
        beta=lambda u: np.asarray(u, dtype=float) @ a.T,
        beta_bound=0.9,
        dim=dim,
        rate=rate,
    )
