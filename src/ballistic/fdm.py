"""Finite-difference solvers for the spreading-packet diffusion equation.

The density obeys dP/dt = d/dx ( D_t(x, t) dP/dx ) with a diffusion
coefficient that grows linearly in time.  Two coefficient modes exist:

* closed_form: D_t = u0^2 t (`closed_form_diffusivity`), uniform in x;
* local_recursion: D_t accumulated per cell from -D ln P of the evolving
  density.  The accumulated value depends on the step count, so this mode
  is a literal transcription of the defining rule, not an equivalent route
  to the closed form; tests compare the two empirically.

Both explicit (forward Euler, conditionally stable) and implicit
(backward Euler, unconditionally stable) stepping are provided.  The
domain edges hold zero ghost cells, so mass leaks only through whatever
density reaches the boundary; keeping a margin of 4 sigma(t_max) on each
side of the packet keeps that leak below any practical tolerance.
`solve` returns the density and the coefficient as `ScalarField`s.  A
closed_form step takes D_t as one number, and its field is a read-only
broadcast of that number across each row; local_recursion keeps one per cell.

A closed_form solve checks every step's coefficient once, before the first
step, and then writes each step straight into its row of the density: an
explicit step is one `_stencil` pass from a reused zero-ghost row, and an
implicit step one in-place `_band_solve`.  The scalar paths of
`explicit_step` and `implicit_step` call the same two helpers, so both
routes write the same bytes.  local_recursion calls the public steps.  The
mass monitor checks every row, the initial one included; a NaN or infinite
cell makes the mass non-finite, so it also stops a non-finite row.

scipy is needed only by the implicit scheme's LAPACK `gtsv` call, and is
imported once per implicit solve or step: `scipy.linalg` takes longer to
import than the rest of the package, and closed-form, trajectory and
explicit runs never use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
from .analytic import closed_form_diffusivity, gaussian_density, sigma_at

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
    """The density row, and the coefficient as 0-d or broadcast to the row."""
    prev = np.asarray(previous_row, dtype=float)
    if prev.ndim != 1 or prev.size < 3:
        raise ParameterError("density row must be 1-d with at least 3 cells")
    diff = np.asarray(diffusivity_row, dtype=float)
    return prev, (np.broadcast_to(diff, prev.shape) if diff.ndim else diff)


def _stencil(pad, scale, out):
    """Write prev + scale (pad[2:] - 2 prev + pad[:-2]) into out, prev being
    pad[1:-1] between zero ghosts: one forward-Euler step with a uniform
    coefficient, scale = D dt / dx^2.  The ufuncs run in that order, each
    into out, so every caller writes the same bytes and allocates nothing."""
    prev = pad[1:-1]
    np.multiply(prev, 2.0, out=out)
    np.subtract(pad[2:], out, out=out)
    out += pad[:-2]
    out *= scale
    out += prev
    return out


def _explicit_r(diff, dx: float, dt: float) -> float:
    """r = max(D) dt / dx^2 of one explicit step with coefficient diff (0-d or
    a row); refuses a non-finite coefficient, and r > 1/2."""
    d_max = float(diff.max() if diff.ndim else diff)
    # max passes NaN and +inf on; a -inf in a varying row needs the min
    if not (math.isfinite(d_max) and (not diff.ndim or math.isfinite(diff.min()))):
        raise ParameterError("explicit step needs a finite coefficient")
    r = d_max * dt / dx**2
    if r > _R_LIMIT:
        report = StabilityReport(max_allowed_dt=0.5 * dx**2 / d_max if d_max > 0 else np.inf,
                                 requested_dt=dt)
        raise StabilityError(f"explicit step refused: r = {r:.6g} > 1/2", report)
    return r


def explicit_step(previous_row, diffusivity_row, dx: float, dt: float) -> np.ndarray:
    """One forward-Euler step with zero ghost cells beyond both edges.

    A scalar or uniform coefficient uses the plain second-difference
    stencil; a spatially varying one uses the flux-conservative form with
    arithmetic-mean interface diffusivities.  Refuses a non-finite
    coefficient, and refuses to step when r = max(D) dt / dx^2 exceeds 1/2.
    """
    prev, diff = _as_row_pair(previous_row, diffusivity_row)
    if diff.ndim and np.all(diff == diff[0]):
        diff = diff[0]
    r = _explicit_r(diff, dx, dt)
    if not diff.ndim:
        pad = np.zeros(prev.size + 2)
        pad[1:-1] = prev
        return _stencil(pad, r, np.empty_like(prev))
    padded = np.concatenate(([0.0], prev, [0.0]))
    dpad = np.concatenate(([diff[0]], diff, [diff[-1]]))
    d_half = 0.5 * (dpad[1:] + dpad[:-1])
    flux = d_half * np.diff(padded)
    return prev + (dt / dx**2) * (flux[1:] - flux[:-1])


def _uniform_bands(w, d):
    """The off-diagonal and diagonal of I - dt L for a uniform coefficient d,
    w = dt / dx^2: every interface value is 0.5 (d + d) = d.  Takes one
    coefficient or an array of them."""
    return -w * d, 1.0 + w * (d + d)


def _band_solve(gtsv, off, main, row):
    """Solve (I - dt L) x = row in place in row.  off and main are the
    symmetric off-diagonal and the diagonal of I - dt L: floats for a
    uniform coefficient, else rows that the solve may overwrite."""
    if isinstance(main, float):
        off, main = np.full(row.size - 1, off), np.full(row.size, main)
    *_, x, info = gtsv(off, main, off.copy(), row,
                       overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal solve failed: gtsv info = {info}")
    if x is not row:
        raise RuntimeError("tridiagonal solve did not write into its row")
    return row


def implicit_step(previous_row, diffusivity_row, dx: float, dt: float) -> np.ndarray:
    """One backward-Euler step, (I - dt L) P_new = P_old.

    L is the same flux-conservative operator as the explicit path, so the
    two schemes agree to first order in dt.  The system matrix is a
    diagonally dominant tridiagonal M-matrix for D_t >= 0, which makes the
    solve unconditionally stable and sign preserving.
    """
    from scipy.linalg.lapack import dgtsv  # deferred: see the module docstring

    prev, diff = _as_row_pair(previous_row, diffusivity_row)
    w = dt / dx**2
    if diff.ndim:
        dpad = np.concatenate(([diff[0]], diff, [diff[-1]]))
        d_half = 0.5 * (dpad[1:] + dpad[:-1])  # n + 1 interface values
        off, main = -w * d_half[1:-1], 1.0 + w * (d_half[:-1] + d_half[1:])
        finite = np.isfinite(off).all() and np.isfinite(main).all()
    else:
        off, main = _uniform_bands(w, diff)
        finite = math.isfinite(off) and math.isfinite(main)
    if not (finite and math.isfinite(prev.min()) and math.isfinite(prev.max())):
        raise ParameterError("implicit step needs a finite row and coefficient")
    return _band_solve(dgtsv, off, main, prev.copy())


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
    check_stability.  norm_tolerance (the [solver] key of that name) bounds
    the total mass's drift from 1 at every step.
    """

    grid: Grid
    source: SlitSource
    params: PhysicalParams = PhysicalParams()
    mode: str = "closed_form"
    scheme: str = "explicit"
    norm_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scheme not in SCHEMES:
            raise ParameterError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        _require_finite(norm_tolerance=self.norm_tolerance)
        if not self.norm_tolerance > 0:
            raise ParameterError("norm_tolerance must be > 0")
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
    diffusivity: ScalarField  # each row's coefficient; a broadcast view in closed_form
    norm_trace: np.ndarray
    flagged_cells: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.norm_trace, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "norm_trace", arr)


def _explicit_rows(density, coeff, dx: float, dt: float):
    """Write each closed-form explicit step into density[n + 1], coefficient
    coeff[n], and yield n + 1.  Every step's coefficient and r are checked
    before the first one is taken."""
    scales = coeff * dt / dx**2  # each step's r, as _explicit_r computes it
    refused = ~np.isfinite(coeff) | (scales > _R_LIMIT)
    if refused.any():
        _explicit_r(coeff[np.argmax(refused)], dx, dt)  # raises, naming that step's r
    pad = np.zeros(density.shape[1] + 2)
    for n, r in enumerate(scales.tolist()):
        pad[1:-1] = density[n]
        _stencil(pad, r, density[n + 1])
        yield n + 1


def _implicit_rows(density, coeff, dx: float, dt: float):
    """Solve each closed-form implicit step in density[n + 1], coefficient
    coeff[n], and yield n + 1.  Every step's bands are checked before the
    first one is taken."""
    from scipy.linalg.lapack import dgtsv  # deferred: see the module docstring

    offs, mains = _uniform_bands(dt / dx**2, coeff)
    if not (np.isfinite(offs).all() and np.isfinite(mains).all()):
        raise ParameterError("implicit step needs a finite row and coefficient")
    for n, (off, main) in enumerate(zip(offs.tolist(), mains.tolist())):
        density[n + 1] = density[n]
        _band_solve(dgtsv, off, main, density[n + 1])
        yield n + 1


def solve(config: SolverConfig) -> SolveResult:
    """March the density from the initial Gaussian over the full grid.

    Row k of the returned diffusivity field is the coefficient at time t_k:
    closed_form steps into row k use row k's value (the target step),
    local_recursion steps out of row k use row k's value (the last density
    the recursion has seen).  Mass is monitored at every row, the initial
    one included, and drift beyond the configured tolerance aborts the run.
    """
    grid, src, p = config.grid, config.source, config.params
    xs = grid.x()
    dx, dt = grid.dx, grid.dt

    density = np.empty((grid.nt + 1, grid.nx))
    norms = np.empty(grid.nt + 1)
    flagged = 0

    def monitor(n):
        # a NaN or infinite cell makes the mass non-finite, which fails too
        norms[n] = density[n].sum() * dx
        drift = abs(norms[n] - 1.0)
        if not drift <= config.norm_tolerance:
            raise NormDriftError(
                f"mass drift {drift:.6g} exceeds tolerance "
                f"{config.norm_tolerance:.6g} at step {n} "
                f"(t = {n * dt:.6g}, mass = {norms[n]:.17g})"
            )

    density[0] = gaussian_density(src, p, xs, 0.0)
    monitor(0)
    if config.mode == "closed_form":
        # one number per row: the field is a read-only broadcast view
        coeff = closed_form_diffusivity(src, p, grid.times())
        diffusivity = np.broadcast_to(coeff[:, None], density.shape)
        rows = _explicit_rows if config.scheme == "explicit" else _implicit_rows
        for n in rows(density, coeff[1:], dx, dt):
            monitor(n)
    else:
        step = explicit_step if config.scheme == "explicit" else implicit_step
        diffusivity = np.empty_like(density)
        diffusivity[0], hits = diffusivity_recursion(density[0], None, p)
        flagged += hits
        for n in range(grid.nt):
            density[n + 1] = step(density[n], diffusivity[n], dx, dt)
            diffusivity[n + 1], hits = diffusivity_recursion(density[n + 1], diffusivity[n], p)
            flagged += hits
            monitor(n + 1)

    return SolveResult(density=ScalarField(grid, density),
                       diffusivity=ScalarField(grid, diffusivity), norm_trace=norms,
                       flagged_cells=flagged)
