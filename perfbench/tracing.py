"""In-memory span tracing around the public functions of randerslab.

``install(tracer)`` replaces each traced name where its callers look it up:
module globals (also in every module that bound the name with
``from ... import``), and class attributes for methods.  A span is
``[name, start, end, parent_index]``; counts are derived from the call's
arguments or return value.  Nothing is written until the run ends.
"""

import dataclasses
import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

# Span names whose total time, self time and call count are reported.
REPORTED_SPANS = {
    "s": ["cli.validate_config", "geometry.jacobian_at", "dynamics.run_cycles",
          "observables.evolve_coordinates", "observables.mean_guide",
          "observables.Preparation.draw", "observables.wep_to_csv",
          "concentration.sample", "concentration.concentration_profile",
          "concentration.tail_profile_from_deviations",
          "lipschitz.estimate_lipschitz", "lipschitz.tune_profile",
          "gravity_scales.scale_sweep", "runio.atomic_write_text"],
    "self_s": ["cli.run", "dynamics.run_cycles", "observables.wep_experiment",
               "concentration.sphere_isoperimetric_check",
               "lipschitz.radial_decomposition", "runio.atomic_write_csv"],
    "calls": ["geometry.jacobian_at", "observables.evolve_coordinates",
              "concentration.sample", "lipschitz.estimate_lipschitz"],
}
COUNTERS = ["cli.ops", "cli.ops_failed", "geometry.drift.calls",
            "geometry.drift.elems", "dynamics.run_cycles.steps",
            "observables.evolve_coordinates.coord_steps",
            "concentration.sample.bytes", "lipschitz.pairs",
            "runio.bytes_written", "runio.files_written"]


class Tracer:
    """Span stack and counters for one process; spans stay in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording a span; ``count(counts, args, result)``
        runs after a successful call, with ``args`` bound by name."""
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        return traced

    def counted(self, fn):
        """Return drift function ``fn`` counting calls and elements."""

        @functools.wraps(fn)
        def drift(x):
            self.counts["geometry.drift.calls"] += 1
            self.counts["geometry.drift.elems"] += int(np.size(x))
            return fn(x)

        return drift


def _steps(period_T, dt, n_cycles):
    return 2 * n_cycles * round(period_T / dt)


def _count_run_cycles(c, a, result):
    steps = _steps(a["schedule"].period_T, a["dt"], a["n_cycles"])
    point = a["initial"].point
    state = point.u.size + (point.p.size if point.p.any() else 0)
    c["dynamics.run_cycles.steps"] += steps
    c["dynamics.state_updates"] += steps * state


def _count_evolve(c, a, result):
    c["observables.evolve_coordinates.coord_steps"] += int(np.size(a["u0"])) * _steps(
        a["schedule"].period_T, a["dt"], a["n_cycles"])


def _count_sample(c, a, result):
    c["concentration.sample.bytes"] += int(result.nbytes)


def _count_pairs(c, a, result):
    c["lipschitz.pairs"] += int(result.pairs_or_points)


def _count_write(c, a, result):
    path = os.fspath(a["path"])
    c["runio.files_written"] += 1
    # The manifest carries a timestamp whose length can vary; every other
    # file has fixed content for a seed, so the byte count repeats exactly.
    if os.path.basename(path) != "manifest.json":
        c["runio.bytes_written"] += os.path.getsize(path)


def _count_main(c, a, result):
    c["cli.ops"] += 1
    c["cli.ops_failed"] += int(result != 0)


def install(tracer):
    """Wrap the traced names of the imported ``randerslab`` package for the
    rest of the process."""
    from randerslab import (cli, concentration, dynamics, geometry,
                            gravity_scales, lipschitz, observables, runio)

    def patch(owners, attr, name, count=None):
        traced = tracer.wrap(name, getattr(owners[0], attr), count)
        for owner in owners:
            setattr(owner, attr, traced)

    original_build_field = cli.build_field

    def build_field(spec, dim, seed):
        field = original_build_field(spec, dim, seed)
        scalar = field.scalar_map
        return dataclasses.replace(
            field, beta=tracer.counted(field.beta),
            scalar_map=None if scalar is None else tracer.counted(scalar))

    cli.build_field = build_field

    patch([cli], "main", "cli.main", _count_main)
    patch([cli], "run", "cli.run")
    patch([cli], "validate_config", "cli.validate_config")
    patch([geometry.RandersField], "jacobian_at", "geometry.jacobian_at")
    patch([dynamics], "run_cycles", "dynamics.run_cycles", _count_run_cycles)
    patch([observables], "evolve_coordinates",
          "observables.evolve_coordinates", _count_evolve)
    patch([observables], "mean_guide", "observables.mean_guide")
    patch([observables.Preparation], "draw", "observables.Preparation.draw")
    patch([observables], "wep_experiment", "observables.wep_experiment")
    patch([observables], "wep_to_csv", "observables.wep_to_csv")
    patch([concentration.MMSpaceSampler], "sample", "concentration.sample",
          _count_sample)
    patch([concentration], "concentration_profile",
          "concentration.concentration_profile")
    patch([concentration], "sphere_isoperimetric_check",
          "concentration.sphere_isoperimetric_check")
    patch([concentration, observables], "tail_profile_from_deviations",
          "concentration.tail_profile_from_deviations")
    patch([lipschitz], "estimate_lipschitz", "lipschitz.estimate_lipschitz",
          _count_pairs)
    patch([lipschitz], "tune_profile", "lipschitz.tune_profile")
    patch([lipschitz], "radial_decomposition", "lipschitz.radial_decomposition")
    patch([gravity_scales], "scale_sweep", "gravity_scales.scale_sweep")
    patch([runio, dynamics, observables, concentration, gravity_scales],
          "atomic_write_csv", "runio.atomic_write_csv")
    patch([runio], "atomic_write_text", "runio.atomic_write_text", _count_write)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    Spans come from one thread, so children of a span run one after another
    inside it and their durations do not overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def layer_metrics(spans, counts):
    """Per-layer metric values from one traced child's spans and counts."""
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
    out = {}
    for name in REPORTED_SPANS["s"]:
        out[f"{name}.s"] = total[name]
    for name in REPORTED_SPANS["self_s"]:
        out[f"{name}.self_s"] = own[name]
    for name in REPORTED_SPANS["calls"]:
        out[f"{name}.calls"] = calls[name]
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    run_s = total["dynamics.run_cycles"]
    out["dynamics.state_updates_per_s"] = (
        counts.get("dynamics.state_updates", 0) / run_s if run_s else 0.0)
    evolve_s = total["observables.evolve_coordinates"]
    out["observables.coord_steps_per_s"] = (
        counts.get("observables.evolve_coordinates.coord_steps", 0) / evolve_s
        if evolve_s else 0.0)
    out["trace.spans"] = len(spans)
    return out
