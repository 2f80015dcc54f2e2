"""Bohm-type trajectories: the exact paths of one packet, and fixed-step
classical RK4 paths through the emergent two-slit velocity field.

Velocity callbacks of `integrate` may return NaN where the field is undefined
(density nulls of a two-slit system); that stage then reuses the path's last
defined step-start velocity (zero before any).  Leaving the optional spatial
domain of `integrate` freezes a path and flags it rather than aborting the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ParameterError, PhysicalParams, SlitSource
from .analytic import trajectory_position
# bound here only for bench/tracing.py, which wraps it; no run path calls it
from .analytic import total_velocity  # noqa: F401
from .interference import DoubleSlitSystem, field_velocity

__all__ = [
    "Seed",
    "TrajectorySet",
    "seed_positions",
    "integrate",
    "single_slit_trajectories",
    "double_slit_trajectories",
]

VelocityField = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class Seed:
    """Starting offset xi0 relative to the center of one slit."""

    slit: int
    offset: float


@dataclass(frozen=True)
class TrajectorySet:
    """Paths of a seed bundle; takes over and freezes the arrays it is given."""

    seeds: tuple[Seed, ...]
    times: np.ndarray
    positions: np.ndarray  # (len(times), len(seeds))

    def __post_init__(self) -> None:
        for name in ("times", "positions"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.positions.shape != (self.times.size, len(self.seeds)):
            raise ParameterError("positions shape does not match times and seeds")
        if not np.all(np.isfinite(self.positions)):
            raise ParameterError("trajectory positions must stay finite")


def seed_positions(source: SlitSource, count: int, span: float) -> np.ndarray:
    """Uniform seed offsets over [-span sigma0, +span sigma0]; a single
    seed sits on the center."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if not 0 < span < math.inf:
        raise ParameterError(f"span must be finite and > 0, got {span}")
    if count == 1:
        return np.zeros(1)
    half = span * source.sigma0
    return np.linspace(-half, half, count)


def _sample_times(t_max: float, steps: int) -> np.ndarray:
    """Times 0, h, ..., t_max of every path, with h = t_max / steps."""
    if not (math.isfinite(t_max) and t_max > 0):
        raise ParameterError(f"t_max must be finite and > 0, got {t_max}")
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ParameterError(f"steps must be an integer >= 1, got {steps!r}")
    return np.arange(steps + 1) * (t_max / steps)


def integrate(velocity: VelocityField, starts, t_max: float, steps: int,
              domain: tuple[float, float] | None = None):
    """RK4-integrate dx/dt = v(x, t) for a batch of starting points over
    the times of `_sample_times`; returns (times, positions, exited)."""
    times = _sample_times(t_max, steps)
    h = float(times[1])
    x = np.array(starts, dtype=float).ravel()
    positions = np.empty((steps + 1, x.size))
    positions[0] = x
    held = np.zeros(x.size)
    alive = np.ones(x.size, dtype=bool)

    def stage(points, time):
        v = np.asarray(velocity(points, time), dtype=float)
        return np.where(np.isfinite(v), v, held)

    for k in range(steps):
        t = times[k]
        held = k1 = stage(x, t)
        k2 = stage(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = stage(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = stage(x + h * k3, t + h)
        proposed = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if domain is not None:
            lo, hi = domain
            alive &= (proposed >= lo) & (proposed <= hi)
        x = np.where(alive, proposed, x)
        positions[k + 1] = x
    return times, positions, ~alive


def single_slit_trajectories(source: SlitSource, params: PhysicalParams,
                             count: int, span: float, t_max: float, steps: int) -> TrajectorySet:
    """Seed one slit and place each seed on its exact path at the times
    `integrate` steps to over `steps` equal steps."""
    offsets, times = seed_positions(source, count, span), _sample_times(t_max, steps)
    return TrajectorySet(
        seeds=tuple(Seed(1, float(o)) for o in offsets), times=times,
        positions=trajectory_position(source, params, offsets[None, :], times[:, None]))


def double_slit_trajectories(system: DoubleSlitSystem, count: int, span: float,
                             t_max: float, steps: int) -> TrajectorySet:
    """Seed both slits symmetrically, slit 1 first, and integrate all seeds
    at once through the emergent two-slit velocity field."""
    sources = (system.slit1, system.slit2)
    offsets = [seed_positions(source, count, span) for source in sources]
    starts = np.concatenate([s.center + o for s, o in zip(sources, offsets)])
    times, positions, _ = integrate(lambda x, t: field_velocity(system, x, t), starts, t_max, steps)
    seeds = tuple(Seed(slit, float(o)) for slit, offs in enumerate(offsets, 1) for o in offs)
    return TrajectorySet(seeds=seeds, times=times, positions=positions)
