#!/usr/bin/env python3
# Compare the two diffusivity modes the solver offers.
#
# closed_form evaluates D_t = u0^2 t directly and is exact at any step
# count.  local_recursion rebuilds the coefficient from -D ln P of the
# evolving density, accumulated step by step, and the accumulated sum
# scales with the number of steps taken: refine nt and the coefficient
# (and the mass it bleeds through the boundaries) changes with it.  This
# script makes that visible instead of leaving it as a footnote.
#
# Each row solves the same packet on [-15, 15] up to t = 2 with implicit
# stepping and a deliberately loose mass monitor, then reports the
# center-cell coefficient growth relative to the closed form and the
# final mass.  Past a certain step count the drift trips even the loose
# monitor and the run aborts; that row is reported too.

import sys

import numpy as np

from ballistic import (
    Grid,
    NormDriftError,
    PhysicalParams,
    SlitSource,
    SolverConfig,
    closed_form_diffusivity,
    solve,
)

SOURCE = SlitSource(center=0.0, sigma0=1.0, drift=0.0)
PARAMS = PhysicalParams()
T_MAX = 2.0
STEP_COUNTS = (10, 20, 40, 80)


def main() -> int:
    reference = closed_form_diffusivity(SOURCE, PARAMS, T_MAX)
    print(f"closed_form coefficient at t = {T_MAX}: {reference:.6g}")
    print(f"  {'nt':>4} {'center D_t':>12} {'ratio':>10} {'final mass':>11} {'flagged':>8}")
    for nt in STEP_COUNTS:
        grid = Grid(-15.0, 15.0, 301, T_MAX, nt)
        config = SolverConfig(grid=grid, source=SOURCE, params=PARAMS,
                              mode="local_recursion", scheme="implicit",
                              norm_tolerance=0.9)
        try:
            result = solve(config)
        except NormDriftError as err:
            print(f"  {nt:>4} aborted: {err}")
            continue
        center = grid.nx // 2
        grown = result.diffusivity.values[-1, center]
        mass = result.norm_trace[-1]
        print(f"  {nt:>4} {grown:>12.4f} {grown / reference:>10.2f}"
              f" {mass:>11.4f} {result.flagged_cells:>8}")
    print()
    print("The recursion mode is a diagnostic, not a propagator: pair it with")
    print("implicit stepping, expect the coefficient to depend on nt, and keep")
    print("closed_form for anything quantitative.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
