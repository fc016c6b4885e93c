"""Metric-measure samplers and empirical concentration functions.

Covers uniform spheres (normalized Gaussian sampling), Gaussian product
measures and uniform product boxes; estimates the Levy median on an
independent split, counts tail probabilities on fresh samples, and fits
exponential decay constants by least squares on log tail versus rho^2.
"""

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .runio import NumericError, atomic_write_csv, atomic_write_json

# A tail fit uses only grid points with at least this many exceedances.
MIN_EXCEED = 10
# Samplers draw and evaluate rows in blocks of at most this many doubles (at
# least one row), so memory does not grow with n * dimension.
SAMPLE_CHUNK_ELEMS = 2**16


class ConcentrationError(NumericError):
    pass


class EvaluationError(ConcentrationError):
    """A non-finite observable value or deviation, or an observable output
    whose shape is not one value per sample."""


class FitUnavailableError(ConcentrationError):
    """Too few usable grid points (or degenerate abscissa) for a tail fit."""


class DimensionError(ConcentrationError):
    pass


def _in_threads(work: Callable, n: int, workers: int) -> None:
    """Call ``work(k, stop)`` for the tasks k = 0..n-1 on a pool of at most
    ``workers`` workers: the first in the calling thread, each further one
    on its own thread.  A worker takes the lowest task not yet taken, so
    tasks start in order of k.  ``stop()`` turns true once a lower k has
    failed, whose error is the one raised, so task k may return early; no
    task starts after a lower one has failed.  Every thread has ended when
    this returns or raises, and the error raised is that of the lowest
    failing k, as in sequential calls."""
    errors = [None] * n
    lock = threading.Lock()
    taken = 0

    def run():
        nonlocal taken
        while True:
            with lock:
                k = taken
                taken += 1
            stop = lambda k=k: any(e is not None for e in errors[:k])
            if k >= n or stop():
                return
            try:
                work(k, stop)
            except BaseException as exc:  # raised below, in the calling thread
                errors[k] = exc

    threads = [threading.Thread(target=run)
               for _ in range(1, min(workers, n))]
    for t in threads:
        t.start()
    try:
        run()
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc


@dataclass(frozen=True)
class MMSpaceSampler:
    """Deterministic sampler for a metric-measure space.

    kind 'sphere' draws uniform points on S^dimension inside
    R^{dimension+1}; 'gaussian' draws N(0, sigma^2 I) in R^dimension;
    'product_uniform' draws uniform coordinates in ``bounds``.  The same
    (seed, stream) pair always reproduces the same array.  Rows are drawn
    in blocks of at most ``SAMPLE_CHUNK_ELEMS`` doubles from the one
    generator of the stream, so a row does not depend on n or on the
    block size.
    """

    kind: str
    dimension: int
    seed: int
    sigma: float = 1.0
    bounds: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.kind not in ("sphere", "gaussian", "product_uniform"):
            raise ValueError(f"unknown mm-space kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.kind == "sphere" and self.dimension < 2:
            raise DimensionError("sphere concentration needs dimension >= 2")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def width(self) -> int:
        """Coordinates per sample: dimension + 1 on the sphere."""
        return self.dimension + 1 if self.kind == "sphere" else self.dimension

    def _row_blocks(self, n: int, stream: int):
        """Iterator of (first row, block) over the n rows of ``stream`` in
        order.  The generator and the buffers are made by this call, so the
        thread that calls it allocates them even when another thread
        iterates.  Every block is a view of the same buffer of at most
        ``SAMPLE_CHUNK_ELEMS`` doubles, overwritten by the next block: a
        consumer copies what it keeps.  A sphere stream also holds a
        squares buffer of a quarter of the block's rows."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, stream]))
        rows = max(1, min(n, SAMPLE_CHUNK_ELEMS // self.width))
        buf = np.empty((rows, self.width))
        if self.kind == "sphere":
            few = max(1, rows // 4)
            squares, norms = np.empty((few, self.width)), np.empty((rows, 1))
        low, high = map(float, self.bounds)

        def blocks():
            for lo in range(0, n, rows):
                m = min(rows, n - lo)
                x = buf[:m]
                if self.kind == "sphere":
                    rng.standard_normal(out=x)
                    # the steps of np.linalg.norm(x, axis=1, keepdims=True)
                    # in place, the squares a few rows at a time; each row's
                    # sum runs over its own contiguous width, so the rows
                    # stay bit-identical
                    r = norms[:m]
                    for s in range(0, m, few):
                        y = x[s:s + few]
                        np.add.reduce(np.multiply(y, y, out=squares[:len(y)]),
                                      axis=1, keepdims=True, out=r[s:s + few])
                    x /= np.sqrt(r, out=r)
                elif self.kind == "gaussian":
                    rng.standard_normal(out=x)
                    x *= self.sigma
                else:
                    # rng.uniform(low, high): low + (high - low) * random()
                    rng.random(out=x)
                    x *= high - low
                    x += low
                yield lo, x

        return blocks()

    def sample(self, n: int, stream: int = 0) -> np.ndarray:
        out = np.empty((n, self.width))
        for lo, x in self._row_blocks(n, stream):
            out[lo:lo + len(x)] = x
        return out

    def observe_streams(self, f: Callable, streams) -> list:
        """For each ``(n, stream)`` of ``streams``, f over the n samples of
        ``stream``, one value per row, evaluated block by block: equal to
        ``f(self.sample(n, stream))`` for an f acting row by row, without
        holding the (n, width) array: a call holds the output n-vectors
        and, per stream, one block of at most ``SAMPLE_CHUNK_ELEMS``
        doubles and, on the sphere, a few-row squares buffer.  The streams
        are evaluated at the same time as the tasks of a pool with one
        worker per stream (``_in_threads``), the first in the calling
        thread.  Each stream is one generator consumed in order, so no
        value depends on thread scheduling; the output vectors and block
        buffers are allocated here, before any thread starts.  Every thread
        has ended when this returns or raises, and the error raised is that
        of the first failing stream, as in sequential evaluation (a failing
        stream stops the streams after it at their next block)."""
        jobs = [(np.empty(n), self._row_blocks(n, stream))
                for n, stream in streams]

        def fill(k, stop):
            v, blocks = jobs[k]
            for lo, x in blocks:
                if stop():
                    return
                v[lo:lo + len(x)] = _eval_observable(f, x, lo)

        _in_threads(fill, len(jobs), len(jobs))
        return [v for v, _ in jobs]

    def default_rho_p(self, sigma_f: float = 1.0) -> float:
        """Per-degree-of-freedom distance scale making the fitted decay
        constant order one in the calibration cases."""
        if self.kind == "sphere":
            return 1.0 / math.sqrt(self.dimension - 1)
        return sigma_f


def sphere(n_dim: int, seed: int) -> MMSpaceSampler:
    return MMSpaceSampler(kind="sphere", dimension=n_dim, seed=seed)


def _eval_observable(f: Callable, x: np.ndarray, first: int) -> np.ndarray:
    """f on the block x, whose first row is sample ``first``."""
    v = np.asarray(f(x), dtype=float)
    if v.shape != (x.shape[0],):
        raise EvaluationError(f"observable returned shape {v.shape} for "
                              f"samples {x.shape}; expected ({len(x)},)")
    bad = ~np.isfinite(v)
    if bad.any():
        k = int(np.argmax(bad))
        raise EvaluationError(f"observable non-finite at sample {first + k}")
    return v


@dataclass(frozen=True)
class TailFit:
    C1_hat: float
    C2_hat: float
    stderr: float
    n_points: int


@dataclass(frozen=True)
class ConcentrationProfile:
    rho_grid: np.ndarray
    tail_prob: np.ndarray
    exceed_counts: np.ndarray
    median_hat: float
    n_samples: int
    sigma_f: float
    rho_p: float
    fit: TailFit | None
    dimension: int = 0
    seed: int = 0

    def __post_init__(self):
        tail = np.asarray(self.tail_prob, dtype=float)
        if np.any(tail < 0) or np.any(tail > 1):
            raise ValueError("tail probabilities must lie in [0, 1]")
        if np.any(np.diff(tail) > 1e-15):
            raise ValueError("tail probabilities must be nonincreasing in rho")


def _tail_counts(devs: np.ndarray, rho_grid: np.ndarray) -> np.ndarray:
    """Exceedances of each grid point; sorts ``devs`` in place."""
    devs.sort()
    return devs.size - np.searchsorted(devs, rho_grid, side="right")


def _ols_slope(x, y):
    """Least-squares line through (x, y): (slope, intercept, slope stderr)."""
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    dof = max(x.size - 2, 1)
    return slope, intercept, float(np.sqrt(np.sum(resid ** 2) / dof / sxx))


def _fit_tail(rho_grid, counts, n, rho_p):
    usable = counts >= MIN_EXCEED
    if usable.sum() < 3:
        return None
    x = rho_grid[usable] ** 2 / (2.0 * rho_p ** 2)
    y = -np.log(counts[usable] / n)
    if np.ptp(x) <= 0:
        return None
    slope, intercept, stderr = _ols_slope(x, y)
    return TailFit(C1_hat=float(np.exp(-intercept)), C2_hat=slope,
                   stderr=stderr, n_points=int(x.size))


def tail_profile_from_deviations(devs: np.ndarray, rho_grid, *, rho_p: float,
                                 sigma_f: float = 1.0, median_hat: float = 0.0,
                                 dimension: int = 0,
                                 seed: int = 0) -> ConcentrationProfile:
    """Profile from precomputed nonnegative deviations (already centered);
    a non-finite deviation raises ``EvaluationError``.  A float array
    ``devs`` is sorted in place: pass one that is no longer read."""
    rho_grid = np.asarray(rho_grid, dtype=float)
    if rho_grid.ndim != 1 or np.any(np.diff(rho_grid) <= 0) or np.any(rho_grid <= 0):
        raise ValueError("rho_grid must be ascending and positive")
    devs = np.asarray(devs, dtype=float)
    if devs.size == 0:
        raise ValueError("no deviations to profile")
    if not np.isfinite(devs).all():
        raise EvaluationError("non-finite deviation: a zero scale or an "
                              "overflow")
    counts = _tail_counts(devs, rho_grid)
    n = devs.size
    return ConcentrationProfile(
        rho_grid=rho_grid, tail_prob=counts / n, exceed_counts=counts,
        median_hat=median_hat, n_samples=n, sigma_f=sigma_f, rho_p=rho_p,
        fit=_fit_tail(rho_grid, counts, n, rho_p),
        dimension=dimension, seed=seed)


def median_stream_size(n: int) -> int:
    """Draws of the stream ``concentration_profile`` takes its median from."""
    return max(n // 2, 100)


def concentration_profile(f: Callable, sampler: MMSpaceSampler, rho_grid, n: int,
                          sigma_f: float = 1.0,
                          rho_p: float | None = None) -> ConcentrationProfile:
    """Empirical tail P(|f - M_f|/sigma_f > rho) over the grid.

    The median is estimated on an independent half-size substream to avoid
    selection bias; the decay fit uses only grid points with at least
    ``MIN_EXCEED`` exceedances and is marked unavailable otherwise.  A run
    holds the two vectors of f values (``median_stream_size(n)`` and n),
    and while they are drawn one block and a few-row squares buffer per
    stream (``MMSpaceSampler.observe_streams``); the median partitions its
    vector in place and the deviations overwrite the other.
    """
    if rho_p is None:
        rho_p = sampler.default_rho_p(sigma_f)
    f_med, f_x = sampler.observe_streams(f, [(median_stream_size(n), 1), (n, 2)])
    med = float(np.median(f_med, overwrite_input=True))
    del f_med
    # |f_x - med| / sigma_f, step by step in place
    np.subtract(f_x, med, out=f_x)
    np.abs(f_x, out=f_x)
    f_x /= sigma_f
    return tail_profile_from_deviations(
        f_x, rho_grid, rho_p=rho_p, sigma_f=sigma_f, median_hat=med,
        dimension=sampler.dimension, seed=sampler.seed)


def fit_decay_constant(profile: ConcentrationProfile) -> TailFit:
    """Slope of -log tail against rho^2 / (2 rho_p^2), with standard error."""
    fit = _fit_tail(profile.rho_grid, profile.exceed_counts,
                    profile.n_samples, profile.rho_p)
    if fit is None:
        raise FitUnavailableError(
            "need >= 3 grid points with enough exceedances and a "
            "non-degenerate abscissa")
    return fit


# ---------------------------------------------------------------------------
# analytic reference bounds


def sphere_tail_bound(rho, n_dim: int):
    """2 exp(-(N-1) rho^2 / 2) for 1-Lipschitz observables on S^N."""
    return 2.0 * np.exp(-(n_dim - 1) * np.asarray(rho, dtype=float) ** 2 / 2.0)


def gaussian_tail_bound(rho, rho_p: float):
    return 0.5 * np.exp(-np.asarray(rho, dtype=float) ** 2 / (2.0 * rho_p ** 2))


def sphere_neighborhood_bound(epsilon, n_dim: int):
    """1 - sqrt(pi/8) exp(-eps^2 (N-1) / 2): isoperimetric lower bound for
    the measure of the eps-neighborhood of any half-measure set."""
    eps = np.asarray(epsilon, dtype=float)
    return 1.0 - math.sqrt(math.pi / 8.0) * np.exp(-(eps ** 2) * (n_dim - 1) / 2.0)


# ---------------------------------------------------------------------------
# sphere isoperimetric neighborhood check


@dataclass(frozen=True)
class IsoperimetricRow:
    epsilon: float
    empirical: float
    bound: float
    stderr: float
    passed: bool


@dataclass(frozen=True)
class IsoperimetricReport:
    median_hat: float
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def sphere_isoperimetric_check(n_dim: int, epsilon_grid, n: int,
                               seed: int) -> IsoperimetricReport:
    """Empirical measure of the eps-neighborhood of A = {x_0 <= median}
    against the isoperimetric lower bound; mu(A) >= 1/2 by construction.

    A is a cap, so the geodesic distance to it has a closed form, the
    polar-angle deficit, which stays exact in any dimension.  A run holds
    the two n-vectors of x_0 (while they are drawn, one block and a
    few-row squares buffer per stream); the distances overwrite the second.
    """
    if n_dim < 2:
        raise DimensionError("sphere dimension must be >= 2")
    f_ref, f_x = sphere(n_dim, seed).observe_streams(
        lambda pts: pts[:, 0], [(n, 1), (n, 2)])
    med = float(np.median(f_ref, overwrite_input=True))
    del f_ref
    eps_grid = np.asarray(epsilon_grid, dtype=float)
    theta_m = math.acos(max(-1.0, min(1.0, med)))
    # max(theta_m - arccos(clip(x_0, -1, 1)), 0), step by step in place
    dist_to_a = np.clip(f_x, -1.0, 1.0, out=f_x)
    np.arccos(dist_to_a, out=dist_to_a)
    np.subtract(theta_m, dist_to_a, out=dist_to_a)
    np.maximum(dist_to_a, 0.0, out=dist_to_a)

    rows = []
    for eps in eps_grid:
        member = dist_to_a <= eps
        p_hat = float(member.mean())
        bound = float(sphere_neighborhood_bound(eps, n_dim))
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)
        rows.append(IsoperimetricRow(
            epsilon=float(eps), empirical=p_hat, bound=bound, stderr=se,
            passed=bool(p_hat >= bound - 3.0 * se)))
    return IsoperimetricReport(median_hat=med, rows=tuple(rows))


# ---------------------------------------------------------------------------
# exports


def profile_to_csv(profile: ConcentrationProfile, path) -> None:
    header = ["rho", "tail_prob", "bound_sphere", "bound_gaussian", "n_exceed"]
    nd = max(profile.dimension, 2)
    bs = sphere_tail_bound(profile.rho_grid, nd)
    bg = gaussian_tail_bound(profile.rho_grid, profile.rho_p)
    rows = ([profile.rho_grid[i], profile.tail_prob[i], bs[i], bg[i],
             int(profile.exceed_counts[i])] for i in range(profile.rho_grid.size))
    atomic_write_csv(path, header, rows)


def fit_summary_json(profile: ConcentrationProfile, path) -> None:
    fit = profile.fit
    atomic_write_json(path, {
        "median_hat": profile.median_hat,
        "C1_hat": None if fit is None else fit.C1_hat,
        "C2_hat": None if fit is None else fit.C2_hat,
        "stderr": None if fit is None else fit.stderr,
        "n_samples": profile.n_samples,
        "seed": profile.seed,
    })


def isoperimetric_to_csv(report: IsoperimetricReport, path) -> None:
    header = ["epsilon", "empirical_measure", "bound", "stderr", "passed"]
    rows = ([r.epsilon, r.empirical, r.bound, r.stderr, int(r.passed)]
            for r in report.rows)
    atomic_write_csv(path, header, rows)
