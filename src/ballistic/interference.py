"""Two-slit superposition built from two dispersing Gaussian packets.

The total intensity follows the familiar interference law
P = P1 + P2 + 2 sqrt(P1 P2) cos(phi12); the relative phase phi12 collects
the drift, spreading and shifter contributions of both slits.  A cross
term sqrt(P1 P2)(u1 - u2) sin(phi12) feeds the current even where the
packet velocities cancel, and is exposed separately as the entangling
current.

One kernel, `two_slit_fields`, computes sigma(t)^2, the offsets,
densities, velocities and phi12 once per call and validates t once; for a
scalar t its time-only factors are Python floats.  `field_velocity` divides
its current by its density, and `intensity_grid` runs it on blocks of time
rows.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import Grid, ParameterError, PhysicalParams, ScalarField, SlitSource, _require_finite
# bound here only for bench/tracing.py, which wraps it; the kernel inlines sigma(t)^2
from .analytic import sigma_at  # noqa: F401

__all__ = [
    "PhaseShifterSchedule",
    "DoubleSlitSystem",
    "two_slit_fields",
    "field_velocity",
    "intensity_grid",
]

# Densities at or below this floor yield an undefined field velocity (NaN).
VELOCITY_FLOOR = 1e-300

GRID_ROW_BLOCK = 32  # time rows per kernel call in intensity_grid


@dataclass(frozen=True)
class PhaseShifterSchedule:
    """Time profile of an external phase shift applied to slit 1.

    Zero until t_start, then a linear ramp reaching total_shift at t_end,
    constant afterwards.  A degenerate schedule (t_start == t_end) acts as a
    step that switches on just after t_start, matching the ramp limit.
    """

    total_shift: float
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        _require_finite(total_shift=self.total_shift, t_start=self.t_start, t_end=self.t_end)
        if self.t_start < 0:
            raise ParameterError(f"t_start must be >= 0, got {self.t_start}")
        if self.t_end < self.t_start:
            raise ParameterError(f"t_end must be >= t_start, "
                                 f"got t_start={self.t_start}, t_end={self.t_end}")

    def value_at(self, t):
        start, span = self.t_start, self.t_end - self.t_start
        if np.ndim(t) == 0:  # scalar times stay Python floats
            t = float(t)
            frac = min(max((t - start) / span, 0.0), 1.0) if span > 0 else float(t > start)
        else:
            t = np.asarray(t, dtype=float)
            frac = np.clip((t - start) / span, 0.0, 1.0) if span > 0 else (t > start) * 1.0
        return self.total_shift * frac


@dataclass(frozen=True)
class DoubleSlitSystem:
    """Two Gaussian sources sharing one parameter set.

    blocked_slit zeroes that slit's density in every field expression,
    reducing the system to single-slit behavior.  include_energy_term adds
    the drift kinetic-energy difference to the relative phase; it is off by
    default so that equal-energy configurations stay unaffected.
    """

    slit1: SlitSource
    slit2: SlitSource
    params: PhysicalParams
    shifter: PhaseShifterSchedule | None = None
    include_energy_term: bool = False
    blocked_slit: int | None = None

    def __post_init__(self) -> None:
        if self.slit1.center == self.slit2.center:
            raise ParameterError("slit centers must be distinct")
        if self.blocked_slit not in (None, 1, 2):
            raise ParameterError(f"blocked_slit must be None, 1 or 2, got {self.blocked_slit}")


_Fields = namedtuple("_Fields", "density phase_difference entangling_current current")
_GRID_FIELDS = _Fields._fields[:3]  # the fields intensity_grid samples, by output name


def two_slit_fields(system: DoubleSlitSystem, x, t) -> _Fields:
    """The two-slit fields at (x, t), broadcast over x and t, built from each
    slit's density P, total velocity v and osmotic velocity u:

    density: the interference intensity P1 + P2 + 2 sqrt(P1 P2) cos(phi12);
    phase_difference: the relative phase phi2 - phi1, shifter value subtracted;
    entangling_current: the cross-slit current sqrt(P1 P2)(u1 - u2) sin(phi12),
        the only term of the current that survives where both packet
        contributions cancel;
    current: the probability current of the superposed field.
    """
    t = float(t) if np.ndim(t) == 0 else np.asarray(t, dtype=float)
    if (t < 0) if isinstance(t, float) else np.any(t < 0):
        raise ParameterError("time must be >= 0")
    p = system.params
    diff, m_hbar = p.diffusivity, p.mass / p.hbar
    slits = []
    for index, slit in ((1, system.slit1), (2, system.slit2)):
        u0 = diff / slit.sigma0
        sig2 = slit.sigma0**2 + (u0 * t) ** 2
        rate = u0**2 * t / sig2  # spreading velocity per unit offset
        norm = (2.0 * np.pi * sig2) ** -0.5 * (system.blocked_slit != index)
        xi = x - (slit.center + slit.drift * t)
        xi2 = xi * xi
        slits.append((np.exp(xi2 * (-0.5 / sig2)) * norm, slit.drift + xi * rate,
                      xi * (diff / sig2), xi2 * (0.5 * m_hbar * rate)))
    (p1, v1, u1, spread1), (p2, v2, u2, spread2) = slits
    # drift part m/hbar (v2 (x - c2) - v1 (x - c1)) as a slope in x plus an offset
    d1, d2 = system.slit1.drift, system.slit2.drift
    offset = -m_hbar * (d2 * system.slit2.center - d1 * system.slit1.center)
    if system.shifter is not None:
        offset = offset - system.shifter.value_at(t)
    if system.include_energy_term:
        offset = offset - 0.5 * m_hbar * (d2**2 - d1**2) * t
    phi = (spread2 - spread1) + (m_hbar * (d2 - d1) * x + offset)
    # the interference law as (sqrt P1 - sqrt P2)^2 + 2 sqrt(P1 P2)(1 + cos phi12) >= 0
    root1, root2, cos_phi = np.sqrt(p1), np.sqrt(p2), np.cos(phi)
    density = (root1 - root2) ** 2 + 2.0 * root1 * root2 * (1.0 + cos_phi)
    cross = np.sqrt(p1 * p2)
    entangling = cross * (u1 - u2) * np.sin(phi)
    current = p1 * v1 + p2 * v2 + cross * (v1 + v2) * cos_phi + entangling
    return _Fields(density, phi, entangling, current)


def field_velocity(system: DoubleSlitSystem, x, t):
    """Emergent velocity J / P, NaN where the density is <= VELOCITY_FLOOR.

    Callers that integrate trajectories must treat NaN as an undefined
    velocity sample, not as an error.
    """
    terms = two_slit_fields(system, x, t)
    out = np.full(np.shape(terms.density), np.nan)
    return np.divide(terms.current, terms.density, out=out, where=terms.density > VELOCITY_FLOOR)


def intensity_grid(system: DoubleSlitSystem, grid: Grid) -> dict[str, ScalarField]:
    """Density, relative phase and entangling current on a grid, keyed by
    output name."""
    x, t = grid.x(), grid.times()
    values = {name: np.empty((t.size, x.size)) for name in _GRID_FIELDS}
    for start in range(0, t.size, GRID_ROW_BLOCK):
        rows = slice(start, start + GRID_ROW_BLOCK)
        fields = two_slit_fields(system, x, t[rows, None])
        for name, buffer in values.items():
            buffer[rows] = getattr(fields, name)
    # ScalarField copies its values: drop each buffer once it is copied
    return {name: ScalarField(grid, values.pop(name)) for name in _GRID_FIELDS}
