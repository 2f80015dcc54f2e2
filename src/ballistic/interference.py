"""Two-slit superposition built from two dispersing Gaussian packets.

The total intensity follows the familiar interference law
P = P1 + P2 + 2 sqrt(P1 P2) cos(phi12); the relative phase phi12 collects
the drift, spreading and shifter contributions of both slits.  A cross
term sqrt(P1 P2)(u1 - u2) sin(phi12) feeds the current even where the
packet velocities cancel, and is exposed separately as the entangling
current.

One function, `_time_factors`, computes every factor that does not vary
along x: sigma(t)^2 and what follows from it, the drifting centres, the
norms, and the slope and offset of phi12.  Two elementwise laws use them.
`two_slit_fields` allocates its four fields and validates t once; for a
scalar t the factors are Python floats.  `field_velocity` divides its
current by its density.  `intensity_grid` runs the same operations in the
same order, in place, on blocks of whole time rows that hold GRID_CELLS
cells in all, shared out to one worker thread per CPU the process may use;
its three fields are bit-identical to `two_slit_fields` on (x, t[:, None]),
and it never builds the total current.
"""

from __future__ import annotations

import contextvars
import threading
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import (Grid, ParameterError, PhysicalParams, ScalarField, SlitSource,
                   _require_finite, _usable_cpus)
# sigma_at: bound here only for bench/tracing.py to wrap; the kernel inlines sigma(t)^2
from .analytic import _check_time, sigma_at  # noqa: F401

__all__ = [
    "PhaseShifterSchedule",
    "DoubleSlitSystem",
    "two_slit_fields",
    "field_velocity",
    "intensity_grid",
]

# Densities at or below this floor yield an undefined field velocity (NaN).
VELOCITY_FLOOR = 1e-300

# kernel cells in flight in intensity_grid, shared by its workers: each holds
# four scratch arrays of its share, so peak memory does not grow with the CPUs
GRID_CELLS = 2**15


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
        if isinstance(t, float) or np.ndim(t) == 0:  # scalar times stay Python floats
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
    reducing the system to single-slit behavior.  phi12 is not yet the exact
    two-packet phase (see ROADMAP item 1).  It omits each packet's Gouy term
    -arctan(t/tau)/2, tau = 2 m sigma0^2/hbar, which cancels only for equal
    widths, so the unequal-width preset fig3b is off.  include_energy_term,
    off and set by no config key, adds -(m/hbar)(v2^2 - v1^2) t / 2 to phi12,
    so `simulate` runs with unequal drift speeds omit it.
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


def _time_factors(system: DoubleSlitSystem, t):
    """The factors of the two-slit fields that do not vary along x, Python
    floats for a scalar t and arrays shaped like t otherwise: phi12's slope
    in x and offset, and per slit its centre, exponent -1/(2 sigma^2), norm,
    osmotic factor D/sigma^2, spreading-phase factor and spreading rate."""
    p = system.params
    diff, m_hbar = p.diffusivity, p.mass / p.hbar
    slits = []
    for index, slit in ((1, system.slit1), (2, system.slit2)):
        u0 = diff / slit.sigma0
        sig2 = slit.sigma0**2 + (u0 * t) ** 2
        rate = u0**2 * t / sig2  # spreading velocity per unit offset
        slits.append((slit.center + slit.drift * t, -0.5 / sig2,
                      (2.0 * np.pi * sig2) ** -0.5 * (system.blocked_slit != index),
                      diff / sig2, 0.5 * m_hbar * rate, rate))
    # drift part m/hbar (v2 (x - c2) - v1 (x - c1)) as a slope in x plus an offset
    d1, d2 = system.slit1.drift, system.slit2.drift
    offset = -m_hbar * (d2 * system.slit2.center - d1 * system.slit1.center)
    if system.shifter is not None:
        offset = offset - system.shifter.value_at(t)
    if system.include_energy_term:
        offset = offset - 0.5 * m_hbar * (d2**2 - d1**2) * t
    return m_hbar * (d2 - d1), offset, slits


def two_slit_fields(system: DoubleSlitSystem, x, t) -> _Fields:
    """The two-slit fields at (x, t), broadcast over x and t, built from each
    slit's density P, total velocity v and osmotic velocity u:

    density: the interference intensity P1 + P2 + 2 sqrt(P1 P2) cos(phi12);
    phase_difference: the relative phase phi2 - phi1, shifter value subtracted;
    entangling_current: the cross-slit current sqrt(P1 P2)(u1 - u2) sin(phi12),
        the only term of the current that survives where both packet
        contributions cancel;
    current: the probability current of the superposed field.

    A scalar t and the same t inside an array agree to about 1e-14 of each
    field's peak, not bit for bit: a scalar t's time factors are Python
    floats, whose pow rounds differently from numpy's.
    """
    # a float (np.float64 included) skips np.ndim; other scalars still take it
    t = float(t) if isinstance(t, float) or np.ndim(t) == 0 else np.asarray(t, dtype=float)
    _check_time(t)
    slope, offset, factors = _time_factors(system, t)
    slits = []
    for slit, (centre, exponent, norm, osmotic, spreading, rate) in zip(
            (system.slit1, system.slit2), factors):
        xi = x - centre
        xi2 = xi * xi
        slits.append((np.exp(xi2 * exponent) * norm, slit.drift + xi * rate,
                      xi * osmotic, xi2 * spreading))
    (p1, v1, u1, spread1), (p2, v2, u2, spread2) = slits
    phi = (spread2 - spread1) + (slope * x + offset)
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


def _fill(buffer, factor):
    """buffer with factor broadcast into it.  A ufunc that broadcasts an
    operand allocates iterator buffers on every call; a copy does not."""
    np.copyto(buffer, factor)
    return buffer


def _grid_block(x, slope, offset, slits, density, phase, entangling, scratch) -> None:
    """Fill one block of output rows with two_slit_fields' operations, in its
    order, so that every bit agrees, from the block's rows of _time_factors.
    The outputs double as scratch, with four arrays from scratch."""
    # per slit: centre, exponent, norm, osmotic and spreading factors
    (c1, a1, n1, w1, s1, _), (c2, a2, n2, w2, s2, _) = slits
    xi, p1, p2, tmp = (buffer[:density.size].reshape(density.shape) for buffer in scratch)
    _fill(density, x)  # x on every row, until the density is due
    np.subtract(density, _fill(xi, c1), out=xi)
    np.multiply(xi, _fill(entangling, w1), out=entangling)  # u1
    np.multiply(xi, xi, out=p1)
    np.multiply(p1, _fill(phase, s1), out=phase)  # spreading phase of slit 1
    np.multiply(p1, _fill(tmp, a1), out=p1)
    np.exp(p1, out=p1)
    np.multiply(p1, _fill(tmp, n1), out=p1)
    np.subtract(density, _fill(xi, c2), out=xi)
    np.multiply(xi, _fill(tmp, w2), out=tmp)
    np.subtract(entangling, tmp, out=entangling)  # u1 - u2
    np.multiply(xi, xi, out=p2)
    np.multiply(p2, _fill(tmp, s2), out=tmp)
    np.subtract(tmp, phase, out=phase)
    np.multiply(p2, _fill(tmp, a2), out=p2)
    np.exp(p2, out=p2)
    np.multiply(p2, _fill(tmp, n2), out=p2)
    np.multiply(slope, density, out=xi)
    np.add(xi, _fill(tmp, offset), out=xi)
    np.add(phase, xi, out=phase)  # phi12
    np.multiply(p1, p2, out=tmp)
    np.sqrt(tmp, out=tmp)  # the cross amplitude sqrt(P1 P2)
    np.multiply(tmp, entangling, out=entangling)
    np.sin(phase, out=xi)
    np.multiply(entangling, xi, out=entangling)
    np.sqrt(p1, out=p1)
    np.sqrt(p2, out=p2)
    np.subtract(p1, p2, out=density)
    np.square(density, out=density)
    np.cos(phase, out=xi)
    np.add(1.0, xi, out=xi)
    np.multiply(2.0, p1, out=tmp)
    np.multiply(tmp, p2, out=tmp)
    np.multiply(tmp, xi, out=tmp)
    np.add(density, tmp, out=density)


def intensity_grid(system: DoubleSlitSystem, grid: Grid) -> dict[str, ScalarField]:
    """Density, relative phase and entangling current on a grid, keyed by
    output name, bit-identical to two_slit_fields on (x, t[:, None]).

    Blocks of whole time rows go to one worker thread per CPU the process
    may use, the caller's thread among them, each running in a copy of the
    caller's context (and so under its numpy error state).  The first error
    a worker meets is raised here once every thread has been joined.
    """
    x, t = grid.x(), grid.times()
    values = {name: np.empty((t.size, x.size)) for name in _GRID_FIELDS}
    density, phase, entangling = values.values()
    cpus = _usable_cpus()
    # rows per block: a worker's share of the cells, at least one row, at most all
    block = min(t.size, max(1, GRID_CELLS // cpus // x.size))
    starts = range(0, t.size, block)
    slope, offset, slits = _time_factors(system, t[:, None])
    pending, lock, failures = iter(starts), threading.Lock(), []

    def work() -> None:
        try:
            scratch = np.empty((4, block * x.size))
            while True:
                with lock:
                    start = None if failures else next(pending, None)
                if start is None:
                    return
                rows = slice(start, start + block)
                _grid_block(x, slope, offset[rows] if np.ndim(offset) else offset,
                            [[factor[rows] for factor in slit] for slit in slits],
                            density[rows], phase[rows], entangling[rows], scratch)
        except BaseException as exc:  # raised in the caller's thread, below
            failures.append(exc)

    threads = []
    try:
        for _ in range(min(cpus, len(starts)) - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work,))
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return {name: ScalarField(grid, buffer) for name, buffer in values.items()}
