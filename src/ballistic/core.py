"""Physical parameters, lattice geometry, field storage, the explicit
stability bound and the usable CPU count shared by the rest of the package.

Everything defined here is an immutable value object: instances can be
shared freely between threads or processes without copying.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterError",
    "PhysicalParams",
    "SlitSource",
    "Grid",
    "ScalarField",
    "StabilityReport",
    "uncertainty_norm",
    "check_stability",
]


class ParameterError(ValueError):
    """A physical parameter, grid setting or field shape is out of range."""


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def _require_int(name: str, value, minimum: int) -> None:
    """An int (Python or numpy) >= minimum; 2.5 or 5.0 is refused, not rounded."""
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class PhysicalParams:
    """Unit-system anchor.

    Natural units (hbar = mass = 1) are the default, which fixes the
    diffusion constant at D = 1/2.
    """

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(hbar=self.hbar, mass=self.mass)
        if not self.hbar > 0:
            raise ParameterError(f"hbar must be > 0, got {self.hbar}")
        if not self.mass > 0:
            raise ParameterError(f"mass must be > 0, got {self.mass}")

    @property
    def diffusivity(self) -> float:
        """Einstein relation D = hbar / (2 mass), recomputed on every access
        so it can never drift out of sync with hbar and mass."""
        return self.hbar / (2.0 * self.mass)


@dataclass(frozen=True)
class SlitSource:
    """One Gaussian source: center, initial spread and drift velocity."""

    center: float = 0.0
    sigma0: float = 1.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(center=self.center, sigma0=self.sigma0, drift=self.drift)
        if not self.sigma0 > 0:
            raise ParameterError(f"sigma0 must be > 0, got {self.sigma0}")

    def u0(self, params: PhysicalParams) -> float:
        """Initial spreading velocity D / sigma0."""
        return params.diffusivity / self.sigma0


def uncertainty_norm(params: PhysicalParams, source: SlitSource) -> float:
    """Normalization constant 1 / (2 pi sigma0 m u0) of the phase-space
    density.  Since sigma0 * u0 = D this equals 1 / (2 pi m D) = 2 / h for
    every source width; tests pin that independence down."""
    return 1.0 / (2.0 * math.pi * source.sigma0 * params.mass * source.u0(params))


@dataclass(frozen=True)
class Grid:
    """Uniform space-time lattice.

    nx points span [x_min, x_max] inclusive, so dx = (x_max - x_min)/(nx - 1).
    nt steps cover (0, t_max], giving nt + 1 stored rows including t = 0.
    """

    x_min: float
    x_max: float
    nx: int
    t_max: float
    nt: int

    def __post_init__(self) -> None:
        _require_finite(x_min=self.x_min, x_max=self.x_max, t_max=self.t_max)
        if not self.x_max > self.x_min:
            raise ParameterError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        if not math.isfinite(self.x_max - self.x_min):
            raise ParameterError(f"x_max - x_min must be finite, got [{self.x_min}, {self.x_max}]")
        _require_int("nx", self.nx, 3)
        if not self.t_max > 0:
            raise ParameterError(f"t_max must be > 0, got {self.t_max}")
        _require_int("nt", self.nt, 1)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.t_max / self.nt

    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def times(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.dt


@dataclass(frozen=True)
class ScalarField:
    """A scalar quantity sampled on a Grid, stored row-major by time:
    values[j, i] belongs to (t_j, x_i).  It takes over and freezes the array
    it is given (a copy only if not float64); every value must be finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt + 1, self.grid.nx)
        if arr.shape != expected:
            raise ParameterError(
                f"field shape {arr.shape} does not match grid shape {expected}"
            )
        # NaN propagates through min and max, so no field-sized mask is built
        if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise ParameterError("field values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the explicit time-step bound for a planned run."""

    max_allowed_dt: float
    requested_dt: float

    @property
    def ok(self) -> bool:
        return self.requested_dt <= self.max_allowed_dt

    def describe(self) -> str:
        verdict = "ok" if self.ok else "VIOLATED"
        return (
            f"explicit stability: requested dt = {self.requested_dt:.6g}, "
            f"max allowed dt = {self.max_allowed_dt:.6g}: {verdict}"
        )


def check_stability(grid: Grid, source: SlitSource, params: PhysicalParams) -> StabilityReport:
    """Largest explicit time step admissible over (0, t_max].

    Every explicit step requires r = D_t dt / dx^2 <= 1/2, the bound
    `fdm.explicit_step` enforces.  The closed-form coefficient
    D_t = D^2 t / sigma0^2 grows with t, so the binding time is always
    t_max and dt <= dx^2 / (2 D_t(t_max)) = dx^2 sigma0^2 / (2 D^2 t_max).
    """
    d_end = params.diffusivity**2 * grid.t_max / source.sigma0**2
    max_dt = grid.dx**2 / (2.0 * d_end)
    return StabilityReport(max_allowed_dt=max_dt, requested_dt=grid.dt)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else every CPU the machine has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
