"""Cyclic phase-space flow: ODE system, cycle schedule and equilibrium instants.

The flow integrates

    du/dt = s(t) beta(u),      dp/dt = -s(t) J(u)^T p,

with ``s(t) = sqrt(1 - kappa(t))`` (Hamilton's equations of the full
Hamiltonian).  Equilibrium instants sit at odd multiples of the period T,
where the default schedule reaches kappa = 1 exactly and the Hamiltonian
vanishes; there |H| <= H_BOUND * (1 + |p|) must hold.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import PhasePoint, RandersField
from .runio import NumericError, atomic_write_csv


H_BOUND = 1e-9


class DynamicsError(NumericError):
    pass


class ScheduleError(DynamicsError):
    """kappa left [0, 1] or an equilibrium-instant condition failed."""


class BlowUpError(DynamicsError):
    """Integration produced a non-finite state."""

    def __init__(self, step_index: int, t: float):
        self.step_index = step_index
        self.t = t
        super().__init__(f"non-finite state after step {step_index} (t = {t!r})")


class GridAlignmentError(DynamicsError):
    """dt does not divide the period, so equilibrium instants miss the grid."""


@dataclass(frozen=True)
class CycleSchedule:
    """Period T and conformal factor kappa(t) in [0, 1]."""

    period_T: float
    kappa: Callable[[float], float]

    def __post_init__(self):
        if self.period_T <= 0.0:
            raise ValueError("period_T must be positive")


def sin_squared_schedule(period_T: float) -> CycleSchedule:
    """kappa(t) = sin^2(pi t / 2T), evaluated as (1 - cos(pi t / T)) / 2.

    The cosine form returns exactly 1.0 at odd multiples of T and exactly
    0.0 at even multiples (the extrema are flat, so argument roundoff of
    order eps perturbs the value only at order eps^2).
    """
    T = float(period_T)
    return CycleSchedule(
        period_T=T,
        kappa=lambda t: 0.5 * (1.0 - math.cos(math.pi * t / T)),
    )


def constant_schedule(period_T: float, value: float) -> CycleSchedule:
    """Frozen kappa; used for conservation studies, not for cycle runs."""
    if not 0.0 <= value <= 1.0:
        raise ValueError("kappa value must lie in [0, 1]")
    return CycleSchedule(period_T=float(period_T), kappa=lambda t: value)


def tau_of_t(t: float, schedule: CycleSchedule) -> float:
    """Emergent cycle time: tau = n exactly at the n-th equilibrium instant
    t = (2n - 1) T, linear in between."""
    return (t + schedule.period_T) / (2.0 * schedule.period_T)


@dataclass(frozen=True)
class FlowState:
    """Phase point plus the three time labels (external t, raw internal
    t_tilde, emergent cycle time tau)."""

    point: PhasePoint
    t: float
    t_tilde: float
    tau: float


def make_state(point: PhasePoint, schedule: CycleSchedule,
               t: float = 0.0) -> FlowState:
    return FlowState(point=point, t=t, t_tilde=t, tau=tau_of_t(t, schedule))


def _kappa_checked(schedule: CycleSchedule, t: float) -> float:
    k = schedule.kappa(t)
    if not -1e-12 <= k <= 1.0 + 1e-12:
        raise ScheduleError(f"kappa({t}) = {k} outside [0, 1]")
    return min(max(k, 0.0), 1.0)


def speed(schedule: CycleSchedule, t: float) -> float:
    """Time factor s(t) = sqrt(1 - kappa(t)); raises ScheduleError when
    kappa leaves [0, 1]."""
    return math.sqrt(1.0 - _kappa_checked(schedule, t))


def steps_per_period(period_T: float, dt: float) -> int:
    """Number of dt steps in one period T; raises GridAlignmentError unless
    dt divides T, so that every equilibrium instant lands on the grid."""
    m = period_T / dt
    n = round(m) if math.isfinite(m) else 0
    if n < 1 or abs(m - n) > 1e-12 * max(1.0, m):
        raise GridAlignmentError(
            f"dt = {dt!r} does not divide the period T = {period_T!r} "
            f"(T/dt = {m!r})")
    return n


def instant_step(n: int, steps_per_T: int) -> int:
    """Grid step of the n-th equilibrium instant t = (2n - 1) T; the
    inverse of ``equilibrium_cycle``."""
    return (2 * n - 1) * steps_per_T


def equilibrium_cycle(step: int, steps_per_T: int) -> int:
    """Cycle n whose equilibrium instant is grid step ``step`` (``step ==
    instant_step(n, steps_per_T)``), or 0 when that step is no equilibrium
    instant."""
    n, rem = divmod(step + steps_per_T, 2 * steps_per_T)
    return n if rem == 0 else 0


def rk4_march(rate: Callable, y: np.ndarray, dt: float, n_steps: int,
              speed_at: Callable[[float], float]):
    """Classical RK4 for dy/dt = s(t) rate(y) on the grid t_k = k dt,
    k = 0..n_steps.

    Updates ``y`` in place and yields the grid index k + 1 reached after
    each step.  ``rate`` may act on any array shape; ``rate(x)`` returns
    the rate at ``x`` and may overwrite ``x`` with it (as the in-place
    ``scalar_map`` does), and is never handed ``y``.

    Two arrays shaped like ``y``, the slope sum and the stage point, are
    allocated once per march and reused at every step.  The march writes
    only into them, into ``y`` and into what ``rate`` returns when that is
    its own argument.  A step applies the operations of
    ``y += (dt / 6) * (((k1 + 2 k2) + 2 k3) + k4)`` with stage points
    ``y + h k1``, ``y + (h / 2) (2 k2)``, ``y + (dt / 2) (2 k3)`` in that
    order; doubling is exact, so those products round as ``h k2`` and
    ``dt k3`` do, and the step equals the expression on fresh arrays bit
    for bit.
    """
    h = dt / 2
    acc, x = np.empty_like(y), np.empty_like(y)
    for k in range(n_steps):
        t = k * dt
        s1, s2, s4 = speed_at(t), speed_at(t + h), speed_at(t + dt)
        np.copyto(x, y)
        np.multiply(s1, rate(x), out=acc)                # k1
        np.multiply(h, acc, out=x)
        x += y                                           # y + h k1
        np.multiply(s2, rate(x), out=x)                  # k2
        x *= 2
        acc += x                                         # k1 + 2 k2
        x *= h / 2
        x += y                                           # y + h k2
        np.multiply(s2, rate(x), out=x)                  # k3
        x *= 2
        acc += x                                         # ... + 2 k3
        x *= dt / 2
        x += y                                           # y + dt k3
        np.multiply(s4, rate(x), out=x)                  # k4
        acc += x
        acc *= dt / 6
        y += acc
        yield k + 1


def _phase_march(field: RandersField, y: np.ndarray, dt: float, n_steps: int,
                 speed_at: Callable[[float], float]):
    """``rk4_march`` of Hamilton's equations on the phase state ``y``, the
    (2, dim) array of ``u`` over ``p``, by the field's in-place ``rate``,
    which writes ``beta(u)`` over ``-J^T p`` into its argument.  The
    u-subsystem is autonomous; p follows the linear cotangent equation.
    While p is all zero it stays so and only u is marched by ``beta``,
    keeping p's signed zeros."""
    if not np.any(y[1]):
        return rk4_march(field.beta, y[0], dt, n_steps, speed_at)
    return rk4_march(field.rate, y, dt, n_steps, speed_at)


def _hamiltonian(field, schedule, t, u, p) -> tuple:
    """``(H, G, margin)`` at time t: ``G = beta(u)·p``, which the flow
    conserves, ``H = s(t) G`` and the Randers margin ``1 - max|beta_i(u)|``
    of the same ``beta(u)``."""
    beta = np.asarray(field.beta(u))
    g = float(beta @ p)
    return speed(schedule, t) * g, g, 1.0 - float(np.abs(beta).max())


def hamiltonian(field: RandersField, schedule: CycleSchedule,
                state: FlowState) -> float:
    """H_t(u, p) = sqrt(1 - kappa(t)) * sum_k beta_k(u) p_k."""
    return _hamiltonian(field, schedule, state.t, state.point.u,
                        state.point.p)[0]


def step_flow(field: RandersField, schedule: CycleSchedule, state: FlowState,
              dt: float) -> FlowState:
    """Advance (u, p, t) one RK4 step, on copies of the state's arrays.

    t_tilde accumulates the internal-time element (1 - kappa) dt by the
    trapezoid rule.  A non-finite result raises ``BlowUpError`` with the
    grid index reached, ``round(t / dt) + 1``, as ``run_cycles`` numbers it.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    y = np.stack((state.point.u, state.point.p))
    t0 = state.t
    next(_phase_march(field, y, dt, 1, lambda t: speed(schedule, t0 + t)))
    if not np.isfinite(y).all():
        raise BlowUpError(round(t0 / dt) + 1, t0 + dt)
    t2 = t0 + dt
    k0 = _kappa_checked(schedule, t0)
    k1 = _kappa_checked(schedule, t2)
    t_tilde2 = state.t_tilde + 0.5 * ((1.0 - k0) + (1.0 - k1)) * dt
    point2 = PhasePoint(u=y[0], p=y[1], n_molecules=state.point.n_molecules)
    return FlowState(point=point2, t=t2, t_tilde=t_tilde2,
                     tau=tau_of_t(t2, schedule))


@dataclass(frozen=True)
class EquilibriumSnapshot:
    """Phase point and Hamiltonian at the equilibrium instant
    t = (2 cycle - 1) T, where the cycle time tau is ``cycle``."""

    cycle: int
    t: float
    point: PhasePoint
    h_value: float

    @property
    def h_within_bound(self) -> bool:
        """|H| <= H_BOUND * (1 + |p|), the vanishing of the Hamiltonian
        that an equilibrium instant requires; false for a NaN H."""
        p_norm = float(np.linalg.norm(self.point.p))
        return abs(self.h_value) <= H_BOUND * (1.0 + p_norm)


@dataclass
class FlowSummary:
    """Step count and Hamiltonian of a march's last step, stored or not;
    over the steps where the march evaluates H, the largest relative drift
    ``|G - G0| / (1 + |G0|)`` of ``G = beta(u)·p`` and the smallest Randers
    margin ``1 - max|beta_i(u)|``."""

    n_steps: int
    final_h: float
    max_invariant_drift: float
    randers_margin: float


@dataclass
class FlowTrajectory(FlowSummary):
    """A march's summary and its history stored on every stride-th grid
    point."""

    t: np.ndarray
    tau: np.ndarray
    cycle: np.ndarray
    u: np.ndarray
    p: np.ndarray
    h: np.ndarray


def _phase_header(dim: int) -> list:
    return (["t", "tau", "cycle"] + [f"u_{i}" for i in range(dim)]
            + [f"p_{i}" for i in range(dim)] + ["H"])


def snapshots_to_csv(snapshots, path) -> None:
    if not snapshots:
        raise ValueError("no snapshots to export")
    rows = ([s.t, float(s.cycle), s.cycle, s.point.u, s.point.p, s.h_value]
            for s in snapshots)
    atomic_write_csv(path, _phase_header(snapshots[0].point.dim), rows)


def run_cycles(field: RandersField, schedule: CycleSchedule, initial: FlowState,
               n_cycles: int, dt: float, store_trajectory: bool = True,
               stride: int = 1, csv_path=None):
    """Integrate n_cycles fundamental cycles (period 2T each) from t = 0,
    the time ``initial`` must be at (ValueError otherwise).

    Returns ``(trajectory, snapshots)`` where the trajectory stores grid
    steps 0, stride, 2 stride, ... and the snapshots sit at the
    equilibrium instants t = (2n - 1) T, n = 1..n_cycles.  Times are taken
    as k * dt (not accumulated), so with dt dividing T the instants land on
    grid points; each snapshot must be ``h_within_bound`` (ScheduleError
    otherwise).  Instants and the stored rows' cycle labels are numbered
    from the integer step: cycle k holds steps 2 (k - 1) T/dt <= step <
    2 k T/dt, and the last step belongs to n_cycles.  A row's tau is
    ``tau_of_t`` of its float time.

    With ``store_trajectory=False`` no row is stored, and given
    ``csv_path`` each stored row is written to that CSV as the march
    reaches it (a failed march leaves no file there); either way a
    ``FlowSummary`` takes the trajectory's place, so memory does not grow
    with the row count.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    if initial.t != 0.0:
        raise ValueError(f"the march starts at t = 0; the initial state "
                         f"is at t = {initial.t!r}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    steps_per_T = steps_per_period(schedule.period_T, dt)
    total = 2 * n_cycles * steps_per_T
    dim = initial.point.dim
    n_mol = initial.point.n_molecules
    summary = FlowSummary(n_steps=total, final_h=math.nan,
                          max_invariant_drift=0.0, randers_margin=math.nan)
    snapshots = []

    def rows():
        """March, check and record the snapshots; yield the stored rows,
        whose u and p are views of the marched state, used before the next
        row is pulled."""
        y = np.stack((initial.point.u, initial.point.p))
        u, p = y
        h_val, g0, summary.randers_margin = _hamiltonian(field, schedule,
                                                         0.0, u, p)
        if store_trajectory:
            yield [0.0, tau_of_t(0.0, schedule), 1, u, p, h_val]
        march = _phase_march(field, y, dt, total, lambda t: speed(schedule, t))
        for step in march:
            t = step * dt
            if not np.isfinite(y).all():
                raise BlowUpError(step, t)
            n = equilibrium_cycle(step, steps_per_T)
            stored = store_trajectory and step % stride == 0
            if not (stored or n or step == total):
                continue
            h_val, g, margin = _hamiltonian(field, schedule, t, u, p)
            summary.max_invariant_drift = max(summary.max_invariant_drift,
                                              abs(g - g0) / (1.0 + abs(g0)))
            summary.randers_margin = min(summary.randers_margin, margin)
            if n:
                snapshots.append(EquilibriumSnapshot(
                    cycle=n, t=t,
                    point=PhasePoint(u=u.copy(), p=p.copy(), n_molecules=n_mol),
                    h_value=h_val))
                if not snapshots[-1].h_within_bound:
                    raise ScheduleError(
                        f"Hamiltonian |H| = {abs(h_val):.3e} at equilibrium "
                        f"instant t = {t!r} exceeds {H_BOUND:.1e} * (1 + |p|)")
            if stored:
                cycle = min(step // (2 * steps_per_T) + 1, n_cycles)
                yield [t, tau_of_t(t, schedule), cycle, u, p, h_val]
        summary.final_h = h_val

    if csv_path is not None:
        atomic_write_csv(csv_path, _phase_header(dim), rows())
        return summary, snapshots
    table = np.empty((total // stride + 1 if store_trajectory else 0,
                      2 * dim + 4))
    for i, row in enumerate(rows()):
        table[i] = np.hstack(row)
    if not store_trajectory:
        return summary, snapshots
    return FlowTrajectory(
        **vars(summary), t=table[:, 0], tau=table[:, 1],
        cycle=table[:, 2].astype(int), u=table[:, 3:3 + dim],
        p=table[:, 3 + dim:-1], h=table[:, -1]), snapshots
