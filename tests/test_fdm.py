import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ballistic import (
    Grid,
    NormDriftError,
    ParameterError,
    PhysicalParams,
    SlitSource,
    SolverConfig,
    StabilityError,
    closed_form_diffusivity,
    diffusivity_recursion,
    explicit_step,
    gaussian_density,
    implicit_step,
    solve,
)


def small_grid(nt=250):
    return Grid(x_min=-10.0, x_max=10.0, nx=201, t_max=2.0, nt=nt)


# --- single steps -----------------------------------------------------------

def test_explicit_step_quarter_kernel():
    # r = 1/4 spreads a unit spike into the exact [1/4, 1/2, 1/4] stencil
    new = explicit_step([0.0, 1.0, 0.0], 1.0, dx=1.0, dt=0.25)
    assert new.tolist() == [0.25, 0.5, 0.25]


def test_steps_are_identity_at_zero_dt(unit_source, params):
    xs = np.linspace(-6.0, 6.0, 121)
    row = gaussian_density(unit_source, params, xs, 0.0)
    assert np.array_equal(explicit_step(row, 0.5, 0.1, 0.0), row)
    assert np.array_equal(implicit_step(row, 0.5, 0.1, 0.0), row)


def test_schemes_agree_at_small_r(unit_source, params):
    # one step at r = 0.01 on a unit Gaussian; frozen gap 9.8e-5
    xs = np.linspace(-6.0, 6.0, 121)
    dx = 0.1
    r = 0.01
    dt = r * dx**2 / 0.5
    row = gaussian_density(unit_source, params, xs, 0.0)
    e = explicit_step(row, 0.5, dx, dt)
    i = implicit_step(row, 0.5, dx, dt)
    assert np.max(np.abs(e - i) / i) < 1e-4


def test_explicit_step_refuses_unstable_r():
    with pytest.raises(StabilityError) as err:
        explicit_step([0.0, 1.0, 0.0], 1.0, dx=1.0, dt=0.6)
    report = err.value.report
    assert report.max_allowed_dt == 0.5
    assert report.requested_dt == 0.6
    assert not report.ok


def test_explicit_step_accepts_boundary_r():
    # dt exactly at the limit must pass (the guard carries rounding slack)
    explicit_step([0.0, 1.0, 0.0], 1.0, dx=1.0, dt=0.5)


def test_scalar_and_array_diffusivity_agree(unit_source, params):
    xs = np.linspace(-6.0, 6.0, 121)
    row = gaussian_density(unit_source, params, xs, 0.0)
    a = explicit_step(row, 0.3, 0.1, 0.005)
    b = explicit_step(row, np.full(row.shape, 0.3), 0.1, 0.005)
    assert np.array_equal(a, b)


def test_flux_and_stencil_paths_agree(unit_source, params):
    # a one-ulp bump in a single cell forces the flux-conservative branch
    xs = np.linspace(-6.0, 6.0, 121)
    row = gaussian_density(unit_source, params, xs, 0.0)
    bumped = np.full(row.shape, 0.3)
    bumped[60] = np.nextafter(0.3, 1.0)
    a = explicit_step(row, 0.3, 0.1, 0.005)
    b = explicit_step(row, bumped, 0.1, 0.005)
    assert b == pytest.approx(a, rel=1e-12)


def test_flux_form_conserves_interior_mass():
    # zero boundary cells mean zero ghost flux, so the sum must hold
    xs = np.linspace(0.0, math.pi, 101)
    row = np.sin(xs) ** 2
    row[0] = row[-1] = 0.0
    diff = 0.2 + 0.1 * np.sin(3.0 * xs)  # spatially varying to hit the flux path
    dx = xs[1] - xs[0]
    new = explicit_step(row, diff, dx, 0.4 * dx**2 / diff.max())
    assert abs(new.sum() - row.sum()) < 1e-13 * row.sum()


def test_implicit_step_tolerates_large_r(unit_source, params):
    xs = np.linspace(-6.0, 6.0, 121)
    dx = 0.1
    row = gaussian_density(unit_source, params, xs, 0.0)
    new = implicit_step(row, 0.5, dx, 10.0 * dx**2 / 0.5)
    assert new.min() > 0.0
    assert new.max() <= row.max() * (1.0 + 1e-12)


def test_step_rejects_degenerate_row():
    with pytest.raises(ParameterError):
        explicit_step([1.0, 2.0], 0.5, 0.1, 0.001)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=40),
       st.floats(min_value=0.0, max_value=0.5))
def test_explicit_step_preserves_sign(cells, r):
    new = explicit_step(cells, 1.0, dx=1.0, dt=r)
    assert new.min() >= 0.0


# --- local diffusivity recursion --------------------------------------------

def test_recursion_flat_density_gives_zero(params):
    vals, flagged = diffusivity_recursion(np.ones(9), None, params)
    assert np.array_equal(vals, np.zeros(9))
    assert flagged == 0


def test_recursion_log_increment(params):
    vals, _ = diffusivity_recursion(np.full(5, math.exp(-1.0)), None, params)
    assert vals == pytest.approx(np.full(5, 0.5), rel=1e-15)


def test_recursion_accumulates(params):
    row = np.full(5, math.exp(-1.0))
    first, _ = diffusivity_recursion(row, None, params)
    second, _ = diffusivity_recursion(row, first, params)
    assert second == pytest.approx(2.0 * first, rel=1e-15)


def test_recursion_clamp_toggle(params):
    row = np.full(3, math.e)  # ln > 0, increment negative
    clamped, _ = diffusivity_recursion(row, None, params)
    assert np.array_equal(clamped, np.zeros(3))


def test_recursion_flags_nonpositive_cells(params):
    row = np.array([0.5, 0.0, -0.1, 0.5])
    previous = np.full(4, 7.0)
    vals, flagged = diffusivity_recursion(row, previous, params)
    assert flagged == 2
    assert vals[1] == 0.0 and vals[2] == 0.0
    assert vals[0] > 7.0  # positive cells keep accumulating


# --- solver configuration ---------------------------------------------------

def test_config_rejects_thin_margin(unit_source):
    grid = Grid(x_min=-3.0, x_max=3.0, nx=61, t_max=2.0, nt=100)
    with pytest.raises(ParameterError, match="margin"):
        SolverConfig(grid=grid, source=unit_source, scheme="implicit")


def test_config_rejects_drifting_source():
    with pytest.raises(ParameterError, match="drift"):
        SolverConfig(grid=small_grid(), source=SlitSource(center=0.0, drift=0.1))


@pytest.mark.parametrize("field,value", [
    ("mode", "spectral"),
    ("scheme", "crank_nicolson"),
])
def test_config_rejects_unknown_names(unit_source, field, value):
    kw = {field: value}
    with pytest.raises(ParameterError):
        SolverConfig(grid=small_grid(), source=unit_source, **kw)


def test_config_rejects_nonpositive_tolerance(unit_source):
    with pytest.raises(ParameterError):
        SolverConfig(grid=small_grid(), source=unit_source, norm_monitor_tolerance=0.0)


def test_config_runs_stability_check_for_explicit(unit_source):
    coarse_time = Grid(x_min=-10.0, x_max=10.0, nx=801, t_max=2.0, nt=100)
    with pytest.raises(StabilityError) as err:
        SolverConfig(grid=coarse_time, source=unit_source)
    assert not err.value.report.ok
    # the implicit scheme takes the same grid without complaint
    SolverConfig(grid=coarse_time, source=unit_source, scheme="implicit")


def test_stability_bound_admits_every_stable_explicit_grid(unit_source):
    # u0 t_max = 2 > sigma0: r = D_t(t_max) dt / dx^2 = 0.4 on the last step,
    # so the per-step bound holds throughout and the solve keeps its mass
    grid = Grid(x_min=-14.0, x_max=14.0, nx=281, t_max=4.0, nt=1000)
    result = solve(SolverConfig(grid=grid, source=unit_source))
    assert np.max(np.abs(result.norm_trace - 1.0)) < 1e-8


# --- full solves, closed-form coefficient -----------------------------------

@pytest.fixture(scope="module")
def closed_run():
    config = SolverConfig(grid=small_grid(), source=SlitSource(center=0.0))
    return config, solve(config)


def test_solve_initial_row(closed_run):
    config, result = closed_run
    xs = config.grid.x()
    expected = gaussian_density(config.source, config.params, xs, 0.0)
    assert np.array_equal(result.density.values[0], expected)


def test_solve_density_stays_nonnegative(closed_run):
    _, result = closed_run
    assert result.density.values.min() >= 0.0


def test_solve_norm_trace(closed_run):
    config, result = closed_run
    trace = result.norm_trace
    assert trace.shape == (config.grid.nt + 1,)
    assert np.abs(trace - trace[0]).max() < 1e-9
    assert not trace.flags.writeable


def test_solve_second_moment_grows(closed_run):
    config, result = closed_run
    xs = config.grid.x()
    m2 = (result.density.values * xs**2).sum(axis=1) * config.grid.dx
    assert np.all(np.diff(m2) > 0.0)


def test_solve_width_tracks_dispersion_law(closed_run):
    # temporal error dominates: expect roughly rate * t * dt / (2 m2)
    config, result = closed_run
    xs = config.grid.x()
    last = result.density.values[-1]
    sig = math.sqrt(float(np.sum(last * xs**2) / np.sum(last)))
    assert abs(sig - math.sqrt(2.0)) / math.sqrt(2.0) < 0.01


def test_solve_error_first_order_in_dt(unit_source):
    def sigma_err(nt):
        grid = small_grid(nt)
        result = solve(SolverConfig(grid=grid, source=unit_source))
        xs = grid.x()
        last = result.density.values[-1]
        sig = math.sqrt(float(np.sum(last * xs**2) / np.sum(last)))
        return abs(sig - math.sqrt(2.0)) / math.sqrt(2.0)

    coarse, fine = sigma_err(1000), sigma_err(2000)
    assert 2.0e-4 < coarse < 3.0e-4
    assert 1.9 < coarse / fine < 2.1


def test_solve_coefficient_rows_are_uniform(closed_run):
    config, result = closed_run
    dvals = result.diffusivity.values
    assert np.ptp(dvals, axis=1).max() == 0.0
    assert dvals[0, 0] == 0.0
    # t_max here equals the kink time, where the coefficient hits D exactly
    assert dvals[-1, 0] == config.params.diffusivity
    expected = closed_form_diffusivity(config.source, config.params, config.grid.times())
    assert dvals[:, 0] == pytest.approx(expected, rel=1e-15)


def test_solve_result_fields_read_only(closed_run):
    _, result = closed_run
    assert not result.density.values.flags.writeable
    assert not result.diffusivity.values.flags.writeable
    assert result.flagged_cells == 0


def test_solve_vanishing_hbar_freezes_packet():
    params = PhysicalParams(hbar=1e-30, mass=1.0)
    grid = Grid(x_min=-8.0, x_max=8.0, nx=161, t_max=2.0, nt=50)
    result = solve(SolverConfig(grid=grid, source=SlitSource(center=0.0), params=params))
    assert np.array_equal(result.density.values, np.broadcast_to(
        result.density.values[0], result.density.values.shape))


def test_solve_trips_on_tiny_tolerance(unit_source):
    config = SolverConfig(grid=small_grid(), source=unit_source,
                          norm_monitor_tolerance=1e-18)
    with pytest.raises(NormDriftError, match="mass drift"):
        solve(config)


def test_explicit_and_implicit_solves_agree(unit_source):
    grid = small_grid()
    exp = solve(SolverConfig(grid=grid, source=unit_source))
    imp = solve(SolverConfig(grid=grid, source=unit_source, scheme="implicit"))
    a, b = exp.density.values[-1], imp.density.values[-1]
    gap = np.linalg.norm(a - b) / np.linalg.norm(a)
    assert gap < 5e-3


# --- full solves, local recursion -------------------------------------------

def recursion_solve(nt):
    grid = Grid(x_min=-15.0, x_max=15.0, nx=301, t_max=2.0, nt=nt)
    config = SolverConfig(grid=grid, source=SlitSource(center=0.0),
                          mode="local_recursion", scheme="implicit",
                          norm_monitor_tolerance=0.9)
    return solve(config)


def center_growth_ratio(result, nt):
    # coefficient gain at the packet center over the second half of the run,
    # relative to the closed-form gain of 0.25 on the same interval
    dvals = result.diffusivity.values
    return (dvals[nt, 150] - dvals[nt // 2, 150]) / 0.25


def test_recursion_mode_overshoots_closed_form():
    result = recursion_solve(20)
    assert result.flagged_cells == 0
    assert 50.0 < center_growth_ratio(result, 20) < 70.0  # frozen 57.907
    assert 0.2 < result.norm_trace[-1] < 0.8  # heavy mass loss, still finishes


def test_recursion_mode_depends_on_step_count():
    coarse = center_growth_ratio(recursion_solve(20), 20)
    fine = center_growth_ratio(recursion_solve(40), 40)
    assert fine > 1.5 * coarse  # frozen 138.354 vs 57.907


def test_recursion_mode_aborts_when_refined_further():
    with pytest.raises(NormDriftError):
        recursion_solve(80)
