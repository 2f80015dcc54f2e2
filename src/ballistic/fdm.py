"""Finite-difference solvers for the spreading-packet diffusion equation.

The density obeys dP/dt = d/dx ( D_t(x, t) dP/dx ) with a diffusion
coefficient that grows linearly in time.  Two coefficient modes exist:

* closed_form: D_t = u0^2 t, uniform in x, evaluated at the target step;
* local_recursion: D_t accumulated per cell from -D ln P of the evolving
  density.  The accumulated value depends on the step count, so this mode
  is a literal transcription of the defining rule, not an equivalent route
  to the closed form; tests compare the two empirically.

Both explicit (forward Euler, conditionally stable) and implicit
(backward Euler, unconditionally stable) stepping are provided.  The
domain edges hold zero ghost cells, so mass leaks only through whatever
density reaches the boundary; keeping a margin of 4 sigma(t_max) on each
side of the packet keeps that leak below any practical tolerance.
`solve` returns the density and the per-cell coefficient as `ScalarField`s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .core import (
    Grid,
    ParameterError,
    PhysicalParams,
    ScalarField,
    SlitSource,
    StabilityReport,
    _require_finite,
    check_stability,
)
from .analytic import gaussian_density, sigma_at

__all__ = [
    "StabilityError",
    "NormDriftError",
    "SolverConfig",
    "SolveResult",
    "explicit_step",
    "implicit_step",
    "diffusivity_recursion",
    "solve",
]

MODES = ("closed_form", "local_recursion")
SCHEMES = ("explicit", "implicit")

# slack for a requested dt sitting exactly on the stability boundary
_R_LIMIT = 0.5 * (1.0 + 1e-9)


class StabilityError(RuntimeError):
    """Explicit stepping refused; carries the offending StabilityReport."""

    def __init__(self, message: str, report: StabilityReport):
        super().__init__(message)
        self.report = report


class NormDriftError(RuntimeError):
    """Total mass drifted beyond the configured tolerance during a solve."""


def _as_row_pair(previous_row, diffusivity_row):
    prev = np.asarray(previous_row, dtype=float)
    if prev.ndim != 1 or prev.size < 3:
        raise ParameterError("density row must be 1-d with at least 3 cells")
    diff = np.broadcast_to(np.asarray(diffusivity_row, dtype=float), prev.shape)
    return prev, diff


def explicit_step(previous_row, diffusivity_row, dx: float, dt: float) -> np.ndarray:
    """One forward-Euler step with zero ghost cells beyond both edges.

    Uniform coefficients use the plain second-difference stencil; spatially
    varying ones use the flux-conservative form with arithmetic-mean
    interface diffusivities.  Refuses to step when r = max(D) dt / dx^2
    exceeds 1/2.
    """
    prev, diff = _as_row_pair(previous_row, diffusivity_row)
    d_max = float(diff.max())
    r = d_max * dt / dx**2
    if r > _R_LIMIT:
        report = StabilityReport(max_allowed_dt=0.5 * dx**2 / d_max if d_max > 0 else np.inf,
                                 requested_dt=dt)
        raise StabilityError(f"explicit step refused: r = {r:.6g} > 1/2", report)
    padded = np.concatenate(([0.0], prev, [0.0]))
    if np.all(diff == diff[0]):
        lap = padded[2:] - 2.0 * prev + padded[:-2]
        return prev + (diff[0] * dt / dx**2) * lap
    dpad = np.concatenate(([diff[0]], diff, [diff[-1]]))
    d_half = 0.5 * (dpad[1:] + dpad[:-1])
    flux = d_half * np.diff(padded)
    return prev + (dt / dx**2) * (flux[1:] - flux[:-1])


def implicit_step(previous_row, diffusivity_row, dx: float, dt: float) -> np.ndarray:
    """One backward-Euler step, (I - dt L) P_new = P_old.

    L is the same flux-conservative operator as the explicit path, so the
    two schemes agree to first order in dt.  The system matrix is a
    diagonally dominant tridiagonal M-matrix for D_t >= 0, which makes the
    solve unconditionally stable and sign preserving.
    """
    prev, diff = _as_row_pair(previous_row, diffusivity_row)
    n = prev.size
    w = dt / dx**2
    dpad = np.concatenate(([diff[0]], diff, [diff[-1]]))
    d_half = 0.5 * (dpad[1:] + dpad[:-1])  # n + 1 interface values
    ab = np.zeros((3, n))
    ab[0, 1:] = -w * d_half[1:-1]                  # superdiagonal
    ab[1, :] = 1.0 + w * (d_half[:-1] + d_half[1:])  # diagonal
    ab[2, :-1] = -w * d_half[1:-1]                 # subdiagonal
    return solve_banded((1, 1), ab, prev)


def diffusivity_recursion(density_row, previous_diffusivity,
                          params: PhysicalParams) -> tuple[np.ndarray, int]:
    """Accumulate the local coefficient: -D ln P plus the previous call,
    floored at zero (cells where P > 1 contribute negative increments).

    Pass previous_diffusivity=None for the first call.  Cells with P <= 0
    get coefficient 0 and are counted in the returned diagnostics tally.
    """
    p = np.asarray(density_row, dtype=float)
    ok = p > 0.0
    flagged = int(p.size - np.count_nonzero(ok))
    contrib = np.zeros_like(p)
    np.log(p, where=ok, out=contrib)
    contrib *= -params.diffusivity
    if previous_diffusivity is not None:
        contrib = contrib + np.asarray(previous_diffusivity, dtype=float)
    contrib = np.maximum(contrib, 0.0)
    contrib[~ok] = 0.0
    return contrib, flagged


@dataclass(frozen=True)
class SolverConfig:
    """Validated plan for one solve.

    The packet must not drift (the equation carries no advection term) and
    the domain must keep at least 4 sigma(t_max) between the packet center
    and either edge so the zero boundary stays starved of density.  The
    explicit scheme additionally requires the planned dt to pass
    check_stability.
    """

    grid: Grid
    source: SlitSource
    params: PhysicalParams = PhysicalParams()
    mode: str = "closed_form"
    scheme: str = "explicit"
    norm_monitor_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scheme not in SCHEMES:
            raise ParameterError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        _require_finite(norm_monitor_tolerance=self.norm_monitor_tolerance)
        if not self.norm_monitor_tolerance > 0:
            raise ParameterError("norm_monitor_tolerance must be > 0")
        if self.source.drift != 0.0:
            raise ParameterError("solver requires a non-drifting source (drift = 0)")
        sig_end = float(sigma_at(self.source, self.params, self.grid.t_max))
        left = self.source.center - self.grid.x_min
        right = self.grid.x_max - self.source.center
        if left < 4.0 * sig_end or right < 4.0 * sig_end:
            raise ParameterError(
                f"domain margin too small: need 4 sigma(t_max) = {4.0 * sig_end:.6g} "
                f"on each side of the packet center, have {left:.6g} and {right:.6g}"
            )
        if self.scheme == "explicit":
            report = check_stability(self.grid, self.source, self.params)
            if not report.ok:
                raise StabilityError(
                    f"explicit scheme rejected: {report.describe()}", report
                )


@dataclass(frozen=True)
class SolveResult:
    density: ScalarField
    diffusivity: ScalarField  # the coefficient each stored row used, per cell
    norm_trace: np.ndarray
    flagged_cells: int

    def __post_init__(self) -> None:
        arr = np.array(self.norm_trace, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "norm_trace", arr)


def solve(config: SolverConfig) -> SolveResult:
    """March the density from the initial Gaussian over the full grid.

    Row k of the returned diffusivity field is the coefficient at time t_k:
    closed_form steps into row k use row k's value (the target step),
    local_recursion steps out of row k use row k's value (the last density
    the recursion has seen).  Mass is monitored each step and drift beyond
    the configured tolerance aborts the run.
    """
    grid, src, p = config.grid, config.source, config.params
    xs = grid.x()
    dx, dt = grid.dx, grid.dt
    step = explicit_step if config.scheme == "explicit" else implicit_step

    density = np.empty((grid.nt + 1, grid.nx))
    diffusivity = np.empty_like(density)
    norms = np.empty(grid.nt + 1)
    flagged = 0

    density[0] = gaussian_density(src, p, xs, 0.0)
    norms[0] = density[0].sum() * dx
    rate = src.u0(p) ** 2  # dD_t/dt of the closed form
    if config.mode == "closed_form":
        diffusivity[0] = 0.0
    else:
        diffusivity[0], hits = diffusivity_recursion(density[0], None, p)
        flagged += hits

    for n in range(grid.nt):
        if config.mode == "closed_form":
            diffusivity[n + 1] = rate * ((n + 1) * dt)
            used = diffusivity[n + 1]
        else:
            used = diffusivity[n]
        density[n + 1] = step(density[n], used, dx, dt)
        if config.mode == "local_recursion":
            diffusivity[n + 1], hits = diffusivity_recursion(density[n + 1], diffusivity[n], p)
            flagged += hits
        norms[n + 1] = density[n + 1].sum() * dx
        drift = abs(norms[n + 1] - 1.0)
        if drift > config.norm_monitor_tolerance:
            raise NormDriftError(
                f"mass drift {drift:.6g} exceeds tolerance "
                f"{config.norm_monitor_tolerance:.6g} at step {n + 1} "
                f"(t = {(n + 1) * dt:.6g}, mass = {norms[n + 1]:.17g})"
            )

    return SolveResult(
        density=ScalarField(grid, density),
        diffusivity=ScalarField(grid, diffusivity),
        norm_trace=norms,
        flagged_cells=flagged,
    )
