"""Closed-form kinematics of a single spreading Gaussian packet.

The packet disperses ballistically: its width obeys
sigma(t)^2 = sigma0^2 + (u0 t)^2 with u0 = D / sigma0, so the variance is
quadratic in t rather than linear as in ordinary diffusion.  All functions
broadcast over numpy arrays in x and t.
"""

from __future__ import annotations

import numpy as np

from .core import ParameterError, PhysicalParams, SlitSource, uncertainty_norm

__all__ = [
    "sigma_at",
    "gaussian_density",
    "phase_space_density",
    "osmotic_velocity",
    "total_velocity",
    "total_acceleration",
    "trajectory_position",
    "kink_time",
    "closed_form_diffusivity",
    "phase",
]


def _check_time(t) -> None:
    if np.any(np.asarray(t) < 0):
        raise ParameterError("time must be >= 0")


def _offset(source: SlitSource, x, t):
    # displacement from the drifting packet center
    return x - source.center - source.drift * t


def sigma_at(source: SlitSource, params: PhysicalParams, t):
    """Packet spread sigma(t) = sqrt(sigma0^2 + (u0 t)^2)."""
    _check_time(t)
    u0 = source.u0(params)
    return np.sqrt(source.sigma0**2 + (u0 * t) ** 2)


def gaussian_density(source: SlitSource, params: PhysicalParams, x, t):
    """Normalized position density of the dispersing packet."""
    sig = sigma_at(source, params, t)
    xi = _offset(source, x, t)
    return np.exp(-(xi**2) / (2.0 * sig**2)) / (np.sqrt(2.0 * np.pi) * sig)


def phase_space_density(source: SlitSource, params: PhysicalParams, x, p, t):
    """Joint density over position and momentum fluctuation p about the drift.

    Marginalizing over p recovers gaussian_density; the momentum marginal is
    a Gaussian of width m u0 that never spreads.
    """
    _check_time(t)
    u0 = source.u0(params)
    m = params.mass
    xi = _offset(source, x, t)
    norm = uncertainty_norm(params, source)
    spatial = np.exp(-((xi - p * t / m) ** 2) / (2.0 * source.sigma0**2))
    momentum = np.exp(-(p**2) / (2.0 * (m * u0) ** 2))
    return norm * spatial * momentum


def osmotic_velocity(source: SlitSource, params: PhysicalParams, x, t):
    """u = -D grad(P)/P, linear in the offset from the packet center."""
    sig2 = sigma_at(source, params, t) ** 2
    return _offset(source, x, t) * params.diffusivity / sig2


def total_velocity(source: SlitSource, params: PhysicalParams, x, t):
    """Drift plus spreading velocity, v + xi(t) u0^2 t / sigma(t)^2."""
    u0 = source.u0(params)
    sig2 = sigma_at(source, params, t) ** 2
    return source.drift + _offset(source, x, t) * u0**2 * t / sig2


def total_acceleration(source: SlitSource, params: PhysicalParams, x, t):
    """Time derivative of total_velocity along a trajectory:
    xi(t) u0^2 sigma0^2 / sigma(t)^4."""
    u0 = source.u0(params)
    sig2 = sigma_at(source, params, t) ** 2
    return _offset(source, x, t) * u0**2 * source.sigma0**2 / sig2**2


def trajectory_position(source: SlitSource, params: PhysicalParams, xi0, t):
    """Exact path seeded at offset xi0 from the center at t = 0.

    Offsets scale with the packet width: x(t) = x0 + v t + xi0 sigma(t)/sigma0,
    so paths seeded at different offsets never cross.
    """
    sig = sigma_at(source, params, t)
    return source.center + source.drift * t + xi0 * sig / source.sigma0


def kink_time(source: SlitSource, params: PhysicalParams) -> float:
    """Crossover time sigma0^2 / D separating the nearly-frozen from the
    linearly spreading regime; sigma(kink) = sqrt(2) sigma0."""
    return source.sigma0**2 / params.diffusivity


def closed_form_diffusivity(source: SlitSource, params: PhysicalParams, t):
    """Time-dependent diffusion coefficient D_t = D t / t_kink = u0^2 t.

    Written as D * (t / kink_time) so that the value at the kink is exactly
    the Einstein constant D.
    """
    _check_time(t)
    return params.diffusivity * (t / kink_time(source, params))


def phase(source: SlitSource, params: PhysicalParams, x, t, energy: float | None = None):
    """Action divided by hbar for the spreading packet.

    energy defaults to the kinetic energy of the drift, m v^2 / 2.  A phase
    shifter acts on the two-slit system (`PhaseShifterSchedule`), not here.
    """
    _check_time(t)
    if energy is None:
        energy = 0.5 * params.mass * source.drift**2
    u0 = source.u0(params)
    sig = sigma_at(source, params, t)
    xi = _offset(source, x, t)
    action = (
        params.mass * source.drift * (x - source.center)
        + 0.5 * params.mass * u0**2 * t * (xi / sig) ** 2
        - energy * t
    )
    return action / params.hbar
