"""Seeded scenario streams for the four benchmark workloads.

Each workload is an endless, deterministic stream of rounds built from a
seed.  A round is a tuple of `Case`s that a run executes whole, so every
run holds the same mix of case types however long it lasts.  A case
carries the `simulate` argv handed to the program (a preset name plus
`--override` values, never a config file) and a `spec` holding every
number the output checks need, so the checks never read values back from
the program under test.  Generated cases override every grid, source,
shifter and solver value they depend on instead of inheriting them from
the preset text.

Every generated input is valid by construction: explicit solves pass both
explicit stability bounds, solver domains keep at least 4 sigma(t_max) of
margin, every solve keeps its mass within the 1e-6 drift abort, and
two-slit seeds start in slit order.  A non-zero exit is therefore always a
failure of the program.

This module uses only the standard library, so argv generation can be
tested without importing numpy or the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator

WORKLOADS = ("presets", "shifter_sweep", "solver_ladder", "fringe_field")

PRESET_NAMES = ("fig1", "fig3a", "fig3b", "fig4", "fig5")
TWO_SLIT_PRESETS = PRESET_NAMES[1:]

# Reduced-size overrides for the smoke run; references exist for both sizes.
TINY_PRESET_OVERRIDES = ("grid.nx=141", "grid.nt=80", "trajectories.count=5")

# Natural units: the presets never set [params], so D = hbar / (2 mass) = 1/2.
DIFFUSIVITY = 0.5


@dataclass(frozen=True)
class Case:
    """One scenario: the argv given to `simulate` (without --out) and the
    parameters the checks recompute expectations from."""

    kind: str
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict, compare=False)


def sigma_at(sigma0: float, t: float) -> float:
    return math.sqrt(sigma0**2 + (DIFFUSIVITY * t / sigma0) ** 2)


def _overrides(values: dict) -> list[str]:
    out = []
    for key, value in values.items():
        text = repr(value) if isinstance(value, float) else str(value)
        out += ["--override", f"{key}={text}"]
    return out


# ---------------------------------------------------------------------------
# presets: fixed inputs, the README's job

def preset_case(name: str, tiny: bool = False) -> Case:
    extra: list[str] = []
    for item in TINY_PRESET_OVERRIDES if tiny else ():
        extra += ["--override", item]
    return Case(kind="preset", argv=(name, "--format", "csv,pgm", *extra),
                spec={"preset": name, "tiny": tiny})


def _presets(rng: random.Random, seed: int, tiny: bool) -> Iterator[tuple[Case, ...]]:
    # One preset per round.  fig1 leads every pass (it sets the peak
    # memory); the two-slit presets, which cost about the same, follow in a
    # seed-chosen rotation so that short runs still cover all of them.
    start = seed % len(TWO_SLIT_PRESETS)
    order = ("fig1",) + TWO_SLIT_PRESETS[start:] + TWO_SLIT_PRESETS[:start]
    while True:
        for name in order:
            yield (preset_case(name, tiny),)


# ---------------------------------------------------------------------------
# shifter_sweep: two-slit trajectories derived from fig4

def _shifter_sweep(rng: random.Random, seed: int, tiny: bool) -> Iterator[tuple[Case, ...]]:
    while True:
        separation = rng.uniform(8.0, 10.0)
        sigma2 = rng.uniform(0.6, 1.2)
        t_start = rng.uniform(0.5, 6.0)
        # seeds span 3 sigma0 around each center: slit 1 ends at or below
        # -1 and slit 2 starts at or above 0.4, so the bundles never interleave
        spec = {
            "grid": {"x_min": -10.0, "x_max": 10.0, "nx": 801,
                     "t_max": 3.0 if tiny else 12.0, "nt": 20 if tiny else 400},
            "slit1": {"center": -separation / 2, "sigma0": 1.0, "drift": 0.0},
            "slit2": {"center": separation / 2, "sigma0": sigma2, "drift": 0.0},
            "shifter": {"total_shift": rng.uniform(0.0, 6.0 * math.pi),
                        "t_start": t_start, "t_end": t_start + rng.uniform(0.5, 3.0)},
            "trajectories": {"count": 5 if tiny else 21, "span": 3.0},
        }
        yield (Case(
            kind="trajectories",
            argv=("fig4", "--format", "csv", *_overrides(_flatten(spec)),
                  "--override", "output.select=trajectories"),
            spec=spec,
        ),)


# ---------------------------------------------------------------------------
# solver_ladder: single-source finite-difference solves derived from fig1

# One round is one solve per rung: (scheme, mode, nx, nt).  nt None is set
# per case: see _explicit_steps for explicit solves, 20 to 40 steps for
# recursion.  The largest solve comes first, so every run includes it
# and it sets the peak memory; the odd rung count keeps the median off the
# gap between two rungs.
_SOLVER_RUNGS = (
    ("implicit", "closed_form", 2801, 1600),
    ("implicit", "closed_form", 701, 200),
    ("explicit", "closed_form", 201, None),
    ("implicit", "closed_form", 1401, 400),
    ("explicit", "closed_form", 401, None),
    ("implicit", "local_recursion", 1401, None),
    ("explicit", "closed_form", 601, None),
)
_TINY_SOLVER_RUNGS = (
    ("implicit", "closed_form", 301, 40),
    ("explicit", "closed_form", 61, None),
    ("implicit", "local_recursion", 701, None),
)


def explicit_max_dt(sigma0: float, t_max: float, dx: float) -> float:
    """Largest explicit step both stability checks accept.

    `check_stability` bounds dt by dx^2 sigma0^2 / (2 D_end^2 t_max) with
    D_end = D^2 t_max / sigma0^2, the closed-form coefficient at t_max.
    Each explicit step separately requires r = D_end dt / dx^2 <= 1/2.  The
    first bound is the looser one whenever u0 t_max < 1, where a run it
    accepts is still refused mid-solve (exit 3), so both are applied.
    """
    d_end = DIFFUSIVITY**2 * t_max / sigma0**2
    return min(dx**2 * sigma0**2 / (2.0 * d_end**2 * t_max), dx**2 / (2.0 * d_end))


# Explicit solves draw sigma0 from [1.0, 1.2] and t_max from [1.5, 2.0].
_EXPLICIT_SIGMA0 = (1.0, 1.2)
_EXPLICIT_T_MAX = (1.5, 2.0)


def _explicit_steps(nx: int) -> int:
    """Step count stable for every explicit draw on nx points: 5% above
    what the most demanding draw (narrowest packet, longest run, tightest
    domain) needs.  A fixed count also keeps each rung's arrays the same
    size in every run, so the peak memory does not depend on the seed."""
    sigma0, t_max = _EXPLICIT_SIGMA0[0], _EXPLICIT_T_MAX[1]
    dx = 2.0 * 6.0 * sigma_at(sigma0, t_max) / (nx - 1)
    return math.ceil(1.05 * t_max / explicit_max_dt(sigma0, t_max, dx))


def _solver_ladder(rng: random.Random, seed: int, tiny: bool) -> Iterator[tuple[Case, ...]]:
    rungs = _TINY_SOLVER_RUNGS if tiny else _SOLVER_RUNGS
    while True:
        yield tuple(_solver_case(rng, *rung) for rung in rungs)


def _solver_case(rng: random.Random, scheme: str, mode: str, nx: int, nt: int | None) -> Case:
    if scheme == "explicit":
        sigma0 = rng.uniform(*_EXPLICIT_SIGMA0)
        t_max = rng.uniform(*_EXPLICIT_T_MAX)
        center = rng.uniform(-1.0, 1.0)
    else:
        sigma0 = rng.uniform(0.8, 1.25)
        t_max = rng.uniform(6.0, 12.0)
        center = rng.uniform(-2.0, 2.0)
    # closed-form solves keep their mass to 1e-6 with a margin of
    # 6 sigma(t_max), well past the solver's own 4 sigma floor
    half_width = 6.0 * sigma_at(sigma0, t_max)
    if mode == "local_recursion":
        # The recursion coefficient -D ln P is huge wherever the initial
        # density is tiny but nonzero, and such tails carry most of the mass
        # out of the domain within 20 steps.  Past 45 sigma0 the initial
        # density underflows to zero, the coefficient is zero there and, with
        # nx >= 701, the mass stays within 1e-12.
        half_width = max(half_width, 45.0 * sigma0)
        nt = rng.choice((20, 30, 40))
    half_width *= rng.uniform(1.0, 1.15)
    x_min, x_max = center - half_width, center + half_width
    if nt is None:
        nt = _explicit_steps(nx)
    spec = {
        "grid": {"x_min": x_min, "x_max": x_max, "nx": nx, "t_max": t_max, "nt": nt},
        "slit1": {"center": center, "sigma0": sigma0, "drift": 0.0},
        "solver": {"scheme": scheme, "mode": mode, "source": 1, "norm_tolerance": 1e-6},
    }
    return Case(
        kind="solver",
        argv=("fig1", "--format", "pgm", *_overrides(_flatten(spec)),
              "--override", "output.select=density,norm_trace"),
        spec=spec,
    )


# ---------------------------------------------------------------------------
# fringe_field: high-resolution two-slit renders derived from fig3a

# nx is drawn from a range, with nt = nx / 2, so that times spread without
# gaps; the first case of a run takes the largest grid, which sets the peak
# memory (2401 x 1201 cells, about 330 MB).
_FRINGE_NX = (2001, 2401)
_TINY_FRINGE_NX = (61, 81)


def _fringe_field(rng: random.Random, seed: int, tiny: bool) -> Iterator[tuple[Case, ...]]:
    lo, hi = _TINY_FRINGE_NX if tiny else _FRINGE_NX
    nx = hi
    while True:
        separation = rng.uniform(6.0, 10.0)
        half_width = rng.uniform(10.0, 16.0)
        t_start = rng.uniform(0.0, 4.0)
        spec = {
            "grid": {"x_min": -half_width, "x_max": half_width, "nx": nx,
                     "t_max": rng.uniform(6.0, 14.0), "nt": nx // 2},
            "slit1": {"center": -separation / 2, "sigma0": rng.uniform(0.7, 1.3),
                      "drift": rng.uniform(-0.3, 0.3)},
            "slit2": {"center": separation / 2, "sigma0": rng.uniform(0.5, 1.3),
                      "drift": rng.uniform(-0.3, 0.3)},
            "shifter": {"total_shift": rng.uniform(0.0, 4.0 * math.pi),
                        "t_start": t_start, "t_end": t_start + rng.uniform(0.0, 3.0)},
        }
        yield (Case(
            kind="fringe",
            argv=("fig3a", "--format", "pgm", *_overrides(_flatten(spec)),
                  "--override", "output.select=density,phase_difference,entangling_current"),
            spec=spec,
        ),)
        nx = rng.randint(lo, hi)


def _flatten(spec: dict) -> dict:
    return {f"{section}.{key}": value
            for section, values in spec.items() for key, value in values.items()}


_STREAMS = {
    "presets": _presets,
    "shifter_sweep": _shifter_sweep,
    "solver_ladder": _solver_ladder,
    "fringe_field": _fringe_field,
}


def rounds(workload: str, seed: int, tiny: bool = False) -> Iterator[tuple[Case, ...]]:
    """Endless deterministic stream of rounds; the same seed yields the same argv."""
    rng = random.Random(f"{workload}:{seed}")
    return _STREAMS[workload](rng, seed, tiny)


def cases(workload: str, seed: int, tiny: bool = False) -> Iterator[Case]:
    """The cases of `rounds`, one after another."""
    for batch in rounds(workload, seed, tiny):
        yield from batch
