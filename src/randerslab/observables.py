"""Center-of-mass observables and the equivalence-principle experiment.

Subsystems A and B are disjoint tag sets over exchangeable molecules drawn
i.i.d. from one preparation measure.  Their center-of-mass 4-vectors are
tracked at the equilibrium instants (cycle time tau = 1, 2, ...) together
with the guide trajectory M (the preparation-measure mean), and deviations
are profiled with the concentration machinery.
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .concentration import (in_threads, median_in_place, ols_slope,
                            tail_profile_from_deviations)
from .dynamics import (CycleSchedule, equilibrium_cycle, instant_step,
                       rk4_march, sin_squared_schedule, speed,
                       steps_per_period)
from .geometry import BLOCK_DIM, RandersField
from .runio import atomic_write_csv, atomic_write_json, derive_rng

SYSTEMS = ("A", "B", "S")
# Molecule blocks are drawn in row blocks of this many coordinates.
BLOCK_ELEMS = 2**15
# The WEP draws and marches its ensembles in chunks of at most this many
# position coordinates: a chunk and its two RK4 stage arrays (1.125 MiB) fit
# in a 2 MiB L2 cache, whatever the ensemble sizes, and a trial of 10^4
# molecules fits in one chunk.  A chunk holds whole row blocks (BLOCK_ELEMS
# // 8 molecules), so every stream is drawn in the same calls as in one
# piece.
CHUNK_ELEMS = 3 * 2**14


@dataclass(frozen=True)
class Preparation:
    """Per-molecule i.i.d. Gaussian measure on the 8-dim coordinate block,
    with independent coordinates: the covariance is diagonal."""

    mean: np.ndarray
    covariance: np.ndarray
    seed: int

    def __post_init__(self):
        mean = np.broadcast_to(np.asarray(self.mean, dtype=float), (BLOCK_DIM,)).copy()
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if cov.shape != (BLOCK_DIM, BLOCK_DIM):
            raise ValueError("covariance must be 8x8")
        var = np.diag(cov)
        # NaN fails both tests
        if not (np.array_equal(cov, np.diag(var)) and np.all(var >= 0)):
            raise ValueError("covariance must be diagonal with nonnegative "
                             "variances")

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n molecule blocks, shaped (n, 8), scaled and shifted in place:
        with positive variances, bit for bit ``rng.multivariate_normal(mean,
        covariance, n, method="cholesky")``, which draws the same normals."""
        x = rng.standard_normal((n, BLOCK_DIM))
        x *= np.sqrt(np.diag(self.covariance))
        x += self.mean
        return x

    def draw_positions(self, out: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
        """Fill ``out``, shaped (n, 4), with the positions of n molecule
        blocks and return it.

        The blocks are drawn from ``rng`` in row blocks of ``BLOCK_ELEMS //
        BLOCK_DIM`` molecules, one ``draw`` call after another, keeping the
        positions of each; so no (n, 8) array and no draw temporaries larger
        than one row block are held.  The generator continues its stream
        exactly from call to call and each row is transformed on its own,
        so ``out`` equals ``draw(n, rng)[:, :4]`` bit for bit.
        """
        rows = BLOCK_ELEMS // BLOCK_DIM
        for lo in range(0, len(out), rows):
            block = out[lo:lo + rows]
            block[:] = self.draw(len(block), rng)[:, :4]
        return out


def center_of_mass(blocks: np.ndarray) -> np.ndarray:
    """Center-of-mass 4-vector of molecule blocks shaped (..., n, 8), or of
    their positions shaped (..., n, 4): the mean of the position
    coordinates over the molecule axis; velocities never enter.  The WEP
    march's chunked means equal it bit for bit (``_march_means``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return blocks[..., :4].mean(axis=-2)


# ---------------------------------------------------------------------------
# batched evolution of i.i.d. coordinate arrays under componentwise fields


def evolve_coordinates(u0: np.ndarray, field: RandersField,
                       schedule: CycleSchedule, dt: float, n_cycles: int,
                       collect: Callable) -> None:
    """March an arbitrarily shaped coordinate array through n_cycles.

    ``u0`` is consumed: a C-contiguous float array is marched in place
    (anything else is converted once), so a caller that reads it again
    must pass a copy.  Valid only for componentwise fields (the drift acts
    coordinate by coordinate, so molecules and trials decouple and batch
    together).
    ``collect(tau, u)`` is invoked with the whole array at tau = 0 and at
    every equilibrium instant tau = 1..n_cycles; the march stops at the
    last equilibrium instant.

    The march runs in the calling thread, as one ``rk4_march`` with the
    in-place ``scalar_map`` as the rate, so its two stage arrays are
    allocated once.  Callers keep the array cache-sized (``_march_means``)
    and run independent marches at the same time as tasks of one pool
    (``wep_experiment``).
    """
    if field.scalar_map is None:
        raise ValueError("batched evolution requires a componentwise field")
    steps_per_T = steps_per_period(schedule.period_T, dt)
    u = np.ascontiguousarray(u0, dtype=float)
    collect(0, u)
    for step in rk4_march(field.scalar_map, u, dt,
                          instant_step(n_cycles, steps_per_T),
                          lambda t: speed(schedule, t)):
        n = equilibrium_cycle(step, steps_per_T)
        if n:
            collect(n, u)


@dataclass(frozen=True)
class FlowParams:
    """Field plus cycle timing shared by guide and trial evolutions."""

    field: RandersField
    period_T: float
    dt: float


def _continue_sum(total: np.ndarray | None, rows: np.ndarray,
                  out: np.ndarray) -> None:
    """Set ``out``, shaped (k, 4), to the sum of ``total``, shaped (k, 4),
    followed by the rows of ``rows``, shaped (k, m, 4) with m >= 1, added in
    row order: bit for bit ``np.add.reduce`` of the two joined along axis 1,
    without a copy of ``rows``.  ``total`` None starts the sum at the first
    row; ``out`` may be ``total``.

    ``total`` is added into the first row, which is restored afterwards, so
    the only temporary is a copy of that row.
    """
    if total is None:
        np.add.reduce(rows, axis=1, out=out)
        return
    first = rows[:, 0].copy()
    np.add(total, first, out=rows[:, 0])
    np.add.reduce(rows, axis=1, out=out)
    rows[:, 0] = first


def _march_means(preparation: Preparation, flow: FlowParams, n_cycles: int,
                 rngs: list, n_mol: int, parts: list,
                 out: np.ndarray) -> None:
    """Draw an ensemble of ``n_mol`` molecules from each generator in
    ``rngs``, march their positions through ``n_cycles`` and set ``out[k,
    tau, j]``, shaped (len(rngs), n_cycles + 1, len(parts), 4), to the mean
    position of rows ``parts[j] = (a, b)`` of ensemble k at cycle time tau.

    The ensembles are drawn and marched chunk by chunk in one buffer of at
    most ``CHUNK_ELEMS`` coordinates: all in one chunk, which needs
    ``len(rngs) * n_mol <= CHUNK_ELEMS // 4``, or one ensemble in chunks of
    ``CHUNK_ELEMS // 4`` rows.  At each instant a part's rows in the chunk
    are added to its running sum in row order (``_continue_sum``), the
    order in which numpy reduces the molecule axis, so each mean equals
    ``center_of_mass`` of the part of the whole marched ensemble bit for
    bit.  A sum that overflows gives inf or NaN without a warning, for the
    caller's finite check to report (the WEP deviation profiles).
    """
    schedule = sin_squared_schedule(flow.period_T)
    rows = min(n_mol, CHUNK_ELEMS // 4)
    buf = np.empty((len(rngs), rows, 4))
    for lo in range(0, n_mol, rows):
        chunk = buf[:, :n_mol - lo]
        for rng, positions in zip(rngs, chunk):
            preparation.draw_positions(positions, rng)

        def collect(tau, u, lo=lo):
            hi = lo + u.shape[1]
            sums = out[:, tau]
            with np.errstate(over="ignore", invalid="ignore"):
                for j, (a, b) in enumerate(parts):
                    if max(a, lo) < min(b, hi):  # the part meets the chunk
                        _continue_sum(sums[:, j] if a < lo else None,
                                      u[:, max(a, lo) - lo:min(b, hi) - lo],
                                      sums[:, j])

        evolve_coordinates(chunk, flow.field, schedule, flow.dt, n_cycles,
                           collect)
    out /= np.array([[b - a] for a, b in parts])


def mean_guide(preparation: Preparation, flow: FlowParams, n_cycles: int,
               n_reference: int, seed: int):
    """Guide trajectory M(tau): preparation-measure mean of the molecule
    positions at each equilibrium instant, estimated from one large
    reference ensemble evolved under the same field.

    Depends only on the preparation and the field, never on subsystem tags.
    The reference ensemble is drawn and marched chunk by chunk
    (``_march_means``), so it holds at most ``CHUNK_ELEMS`` position
    coordinates at a time, whatever ``n_reference``.
    Returns M, shaped (n_cycles + 1, 4): row tau is the mean at cycle time
    tau = 0..n_cycles.
    """
    m = np.empty((1, n_cycles + 1, 1, 4))
    _march_means(preparation, flow, n_cycles,
                 [derive_rng(seed, "mean-guide", preparation.seed)],
                 n_reference, [(0, n_reference)], m)
    return m[0, :, 0]


# ---------------------------------------------------------------------------
# the WEP experiment


@dataclass(frozen=True)
class WepConfig:
    n_list: tuple
    n_trials: int
    flow: FlowParams
    preparation: Preparation
    n_cycles: int
    rho_grid: np.ndarray
    seed: int
    n_reference: int

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "rho_grid",
                           np.asarray(self.rho_grid, dtype=float))
        if self.n_trials < 2:
            raise ValueError("n_trials must be >= 2: sigma_x is the spread "
                             "over trials")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        if any(n < 2 for n in self.n_list):
            raise ValueError("every N must be >= 2")
        # the monotonicity count reads the sizes in list order
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ValueError("n_list must be strictly ascending")


@dataclass
class PerSizeResult:
    sigma_x: float
    x_obs: np.ndarray        # (n_trials, n_cycles+1, 3 systems, 4)
    d_ab: np.ndarray         # (n_trials, n_cycles+1)
    d_sm: np.ndarray         # (n_trials, n_cycles+1): S to the guide
    median_sup_d_ab: float
    profiles: dict           # tag -> ConcentrationProfile of pooled D/sigma_x
    x_step_max_ratio: float  # max |Delta X| / T over trials, systems, steps


@dataclass
class WepReport:
    config: WepConfig
    guide: np.ndarray        # (n_cycles+1, 4): M at tau = 0..n_cycles
    per_size: dict
    monotonicity: list       # [(N, median_sup_d_ab)]
    monotonic_ok: bool
    inversions: int


def wep_experiment(config: WepConfig) -> WepReport:
    """Evolve S = A | B ensembles over the cycle schedule for every N and
    trial; record center-of-mass separations and guide deviations, their
    tail profiles, and the monotonicity of the median sup-separation in N.

    All systems share the preparation measure and the external field; trial
    draws are independent.
    """
    flow = config.flow
    n_tau = config.n_cycles + 1

    guide_out = []
    x_obs_of = {n_mol: np.empty((config.n_trials, n_tau, 3, 4))
                for n_mol in config.n_list}

    def march_guide():
        guide_out.append(mean_guide(config.preparation, flow, config.n_cycles,
                                    n_reference=config.n_reference,
                                    seed=config.seed))

    def march_trials(n_mol, lo, hi):
        # one random stream per trial; the task writes only its own rows
        n_a = n_mol // 2
        rngs = [derive_rng(config.seed, f"wep-N{n_mol}-trial", k)
                for k in range(lo, hi)]
        _march_means(config.preparation, flow, config.n_cycles, rngs, n_mol,
                     [(0, n_a), (n_a, n_mol), (0, n_mol)],
                     x_obs_of[n_mol][lo:hi])

    # The guide and the groups of trials are independent marches, run as
    # tasks of one pool, each through all its cycles: the guide first, then
    # the sizes from the largest down, so that the small groups fill in last
    # and the workers finish close together.  A group holds the trials of
    # one size that fit in one chunk, or one trial that does not.
    tasks = [march_guide]
    for n_mol in reversed(config.n_list):
        group = max(1, min(config.n_trials, CHUNK_ELEMS // (4 * n_mol)))
        tasks += [functools.partial(march_trials, n_mol, lo,
                                    min(lo + group, config.n_trials))
                  for lo in range(0, config.n_trials, group)]
    in_threads(lambda k, stop: tasks[k](), len(tasks))
    guide, = guide_out

    per_size = {}
    for n_mol in config.n_list:
        x_obs = x_obs_of[n_mol]
        # an overflow or a zero spread gives a non-finite deviation, which
        # the tail profiles report as an EvaluationError
        with np.errstate(all="ignore"):
            sigma_x = float(np.sqrt(np.mean(np.var(x_obs[:, 0, 2, :],
                                                   axis=0))))
            d_ab = np.abs(x_obs[:, :, 0, :] - x_obs[:, :, 1, :]).max(axis=2)
            d = {tag: np.abs(x_obs[:, :, i, :] - guide[None, :, :]).max(axis=2)
                 for i, tag in enumerate(SYSTEMS)}
            profiles = {tag: tail_profile_from_deviations(
                            (d[tag] / sigma_x).reshape(-1), config.rho_grid,
                            rho_p=1.0) for tag in SYSTEMS}
        x_steps = np.abs(np.diff(x_obs, axis=1)).max()
        per_size[n_mol] = PerSizeResult(
            sigma_x=sigma_x,
            x_obs=x_obs,
            d_ab=d_ab,
            d_sm=d["S"],
            median_sup_d_ab=median_in_place(d_ab.max(axis=1)),
            profiles=profiles,
            x_step_max_ratio=float(x_steps / flow.period_T),
        )

    monotonicity = [(n, per_size[n].median_sup_d_ab) for n in config.n_list]
    meds = [m for _, m in monotonicity]
    inversions = sum(1 for a, b in zip(meds, meds[1:]) if b > a)
    allowed = max(1, (len(meds) - 1) // 10)
    return WepReport(
        config=config,
        guide=guide,
        per_size=per_size,
        monotonicity=monotonicity,
        monotonic_ok=inversions <= allowed,
        inversions=inversions,
    )


# ---------------------------------------------------------------------------
# scale relation rho / rho_P against N


@dataclass(frozen=True)
class ScaleRelationReport:
    rho_star: dict            # N -> first rho with tail below threshold (raw)
    threshold: float
    exponent: float
    exponent_stderr: float
    regime: str
    note: str


def _first_rho_below(rho_grid, tail, threshold):
    below = np.nonzero(tail < threshold)[0]
    if below.size == 0:
        return None
    return float(rho_grid[below[0]])


def scale_relation_check(source,
                         threshold: float | None = None) -> ScaleRelationReport:
    """Scaling of the tail-extinction scale rho* with system size.

    ``source`` is a WepReport (the profiles of S; raw rho* = sigma_X times
    the normalized grid value) or a dict ``{N: (rho_grid, tail)}`` of raw
    tail curves.  The exponent is the log-log slope of rho*(N); a slope
    near -1/2 is the CLT regime, near -1 the regime whose concentration
    exponent grows like N^2.  This is a consistency report on an assumed
    relation, not an assertion.
    """
    if isinstance(source, WepReport):
        if threshold is None:
            threshold = 10.0 / source.config.n_trials
        curves = {}
        for n_mol, res in source.per_size.items():
            prof = res.profiles["S"]
            curves[n_mol] = (prof.rho_grid * res.sigma_x, prof.tail_prob)
    else:
        curves = {int(k): (np.asarray(g, dtype=float), np.asarray(t, dtype=float))
                  for k, (g, t) in source.items()}
        if threshold is None:
            raise ValueError("threshold is required for raw tail curves")
    rho_star = {}
    for n_mol in sorted(curves):
        grid, tail = curves[n_mol]
        r = _first_rho_below(grid, tail, threshold)
        if r is not None:
            rho_star[n_mol] = r
    if len(rho_star) < 3:
        raise ValueError(
            "insufficient N coverage: need >= 3 sizes with a resolvable "
            "extinction scale")

    lx = np.log(np.array(sorted(rho_star)))
    ly = np.log(np.array([rho_star[n] for n in sorted(rho_star)]))
    slope, _, stderr = ols_slope(lx, ly)

    if abs(slope + 0.5) <= 0.15:
        regime = "clt"
        note = ("rho* ~ N^-1/2: central-limit scaling; under rho/rho_P ~ N "
                "the concentration exponent grows linearly, not quadratically")
    elif abs(slope + 1.0) <= 0.15:
        regime = "quadratic-exponent"
        note = "rho* ~ N^-1: consistent with an exp(-c N^2 rho^2) tail family"
    else:
        regime = "other"
        note = f"measured exponent {slope:.3f} matches neither reference regime"
    return ScaleRelationReport(rho_star=rho_star, threshold=float(threshold),
                               exponent=slope, exponent_stderr=stderr,
                               regime=regime, note=note)


# ---------------------------------------------------------------------------
# exports


def wep_to_csv(report: WepReport, path) -> None:
    header = (["N", "trial", "tau"]
              + [f"X_A_mu{i}" for i in range(4)]
              + [f"X_B_mu{i}" for i in range(4)]
              + [f"X_S_mu{i}" for i in range(4)]
              + [f"M_mu{i}" for i in range(4)]
              + ["D_AB", "D_SM"])

    def rows():
        for n_mol in report.config.n_list:
            res = report.per_size[n_mol]
            for trial in range(report.config.n_trials):
                for tau in range(report.config.n_cycles + 1):
                    yield ([n_mol, trial, tau]
                           + res.x_obs[trial, tau].ravel().tolist()
                           + report.guide[tau].tolist()
                           + [float(res.d_ab[trial, tau]),
                              float(res.d_sm[trial, tau])])

    atomic_write_csv(path, header, rows())


def wep_summary_json(report: WepReport, path) -> None:
    per_size = {}
    for n_mol, res in report.per_size.items():
        fits = {}
        for tag, prof in res.profiles.items():
            fits[tag] = None if prof.fit is None else {
                "C1_hat": prof.fit.C1_hat, "C2_hat": prof.fit.C2_hat,
                "stderr": prof.fit.stderr, "n_points": prof.fit.n_points}
        per_size[str(n_mol)] = {
            "sigma_x": res.sigma_x,
            "median_sup_d_ab": res.median_sup_d_ab,
            "x_step_max_ratio": res.x_step_max_ratio,
            "fits": fits,
        }
    atomic_write_json(path, {
        "per_size": per_size,
        "monotonicity": [[n, m] for n, m in report.monotonicity],
        "monotonic_ok": report.monotonic_ok,
        "inversions": report.inversions,
        # true by construction: the march adds, removes and re-weights no
        # molecule
        "free_evolution_ok": True,
        "seed": report.config.seed,
    })
