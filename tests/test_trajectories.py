import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ballistic import (
    DoubleSlitSystem,
    ParameterError,
    PhysicalParams,
    Seed,
    SlitSource,
    TrajectorySet,
    double_slit_trajectories,
    gaussian_density,
    integrate,
    kink_time,
    seed_positions,
    single_slit_trajectories,
    total_velocity,
    trajectory_position,
    two_slit_fields,
)


@pytest.fixture(scope="module")
def two_slit_run():
    params = PhysicalParams()
    system = DoubleSlitSystem(slit1=SlitSource(center=-4.0),
                              slit2=SlitSource(center=4.0), params=params)
    bundle = double_slit_trajectories(system, count=21, span=3.0, t_max=12.0, dt=0.0075)
    return system, bundle


# --- seeding ----------------------------------------------------------------

def test_seed_positions_scale_with_width():
    assert seed_positions(SlitSource(center=0.0), 5, 2.0).tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
    narrow = seed_positions(SlitSource(center=7.0, sigma0=0.5), 3, 3.0)
    assert narrow.tolist() == [-1.5, 0.0, 1.5]


def test_seed_positions_single_seed_centers():
    assert seed_positions(SlitSource(center=3.0), 1, 2.0).tolist() == [0.0]


def test_seed_positions_validation():
    src = SlitSource(center=0.0)
    with pytest.raises(ParameterError):
        seed_positions(src, 0, 2.0)
    with pytest.raises(ParameterError):
        seed_positions(src, 5, 0.0)


# --- container --------------------------------------------------------------

def test_trajectory_set_rejects_shape_mismatch():
    with pytest.raises(ParameterError, match="shape"):
        TrajectorySet(seeds=(Seed(1, 0.0),), times=np.zeros(3),
                      positions=np.zeros((2, 1)), exited=np.zeros(1, dtype=bool))


def test_trajectory_set_rejects_nan():
    with pytest.raises(ParameterError, match="finite"):
        TrajectorySet(seeds=(Seed(1, 0.0),), times=np.zeros(2),
                      positions=np.array([[0.0], [math.nan]]),
                      exited=np.zeros(1, dtype=bool))


def test_trajectory_set_is_read_only():
    ts = TrajectorySet(seeds=(Seed(1, 0.0),), times=np.zeros(2),
                       positions=np.zeros((2, 1)), exited=np.zeros(1, dtype=bool))
    assert not ts.positions.flags.writeable
    assert not ts.times.flags.writeable
    assert not ts.exited.flags.writeable


def test_trajectory_set_accepts_empty_bundle():
    ts = TrajectorySet(seeds=(), times=np.array([0.0]),
                       positions=np.zeros((1, 0)), exited=np.zeros(0, dtype=bool))
    assert ts.positions.shape == (1, 0)


# --- integrator vs closed form ----------------------------------------------

def test_integrate_validation(params, unit_source):
    v = lambda x, t: total_velocity(unit_source, params, x, t)
    with pytest.raises(ParameterError):
        integrate(v, [0.0], 0.0, 0.01)
    with pytest.raises(ParameterError):
        integrate(v, [0.0], 1.0, -0.1)


def test_rk4_matches_algebraic_paths(params, unit_source):
    # frozen max error 2.1e-10 at dt = 0.02
    bundle = single_slit_trajectories(unit_source, params, count=21, span=3.0,
                                      t_max=8.0, dt=0.02)
    xi0 = np.linspace(-3.0, 3.0, 21)
    exact = trajectory_position(unit_source, params, xi0[None, :], bundle.times[:, None])
    assert bundle.times[-1] == 8.0
    assert np.abs(bundle.positions - exact).max() < 1e-4
    assert not bundle.exited.any()


def test_center_seed_never_moves(params):
    src = SlitSource(center=2.5)
    bundle = single_slit_trajectories(src, params, count=1, span=2.0, t_max=6.0, dt=0.05)
    assert np.array_equal(bundle.positions, np.full((121, 1), 2.5))


def test_drifting_center_seed_is_ballistic(params):
    src = SlitSource(center=0.0, drift=1.0)
    bundle = single_slit_trajectories(src, params, count=1, span=2.0, t_max=4.0, dt=0.05)
    assert bundle.positions[:, 0] == pytest.approx(bundle.times, rel=1e-12, abs=1e-14)


def test_width_seed_passes_through_kink(params, unit_source):
    # the path seeded one width out sits at sqrt(2) sigma0 at the kink time
    tk = kink_time(unit_source, params)
    bundle = single_slit_trajectories(unit_source, params, count=3, span=1.0,
                                      t_max=tk, dt=0.02)
    assert bundle.times[-1] == tk
    assert abs(bundle.positions[-1, 2] - math.sqrt(2.0)) < 1e-3


@settings(max_examples=40, deadline=None)
@given(a=st.floats(min_value=-3.0, max_value=3.0),
       b=st.floats(min_value=-3.0, max_value=3.0))
def test_integrated_paths_keep_order(a, b):
    assume(b - a > 1e-3)
    params = PhysicalParams()
    src = SlitSource(center=0.0, sigma0=0.8)
    _, pos, _ = integrate(lambda x, t: total_velocity(src, params, x, t), [a, b], 4.0, 0.05)
    assert np.all(pos[:, 1] - pos[:, 0] > 0.0)


# --- undefined velocity samples ---------------------------------------------

def unit_field(x, t):
    """Unit speed on [-1, 1], undefined (NaN) outside."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, 1.0, np.nan)


def test_integrator_holds_last_velocity_past_field_edge():
    _, pos, exited = integrate(unit_field, [0.5], 2.0, 0.01)
    # the path leaves the sampled window at t = 0.5 and coasts at the held speed
    assert pos[-1, 0] == pytest.approx(2.5, abs=1e-12)
    assert not exited[0]


def test_integrator_freezes_on_domain_exit():
    _, pos, exited = integrate(unit_field, [0.5], 2.0, 0.01, domain=(-2.0, 1.2))
    assert exited[0]
    assert pos[-1, 0] <= 1.2
    assert np.ptp(pos[-50:, 0]) == 0.0


def test_integrator_static_when_undefined_from_start():
    _, pos, _ = integrate(unit_field, [3.0], 1.0, 0.1)
    assert np.ptp(pos[:, 0]) == 0.0


# --- two-slit bundles -------------------------------------------------------

def test_double_slit_seed_bundle_layout(two_slit_run):
    _, bundle = two_slit_run
    assert len(bundle.seeds) == 42
    assert all(s.slit == 1 for s in bundle.seeds[:21])
    assert all(s.slit == 2 for s in bundle.seeds[21:])
    offsets = [s.offset for s in bundle.seeds[:21]]
    assert offsets == np.linspace(-3.0, 3.0, 21).tolist()


def test_double_slit_paths_never_cross(two_slit_run):
    _, bundle = two_slit_run
    gaps = np.diff(bundle.positions, axis=1)
    assert np.all(gaps > 0.0)
    assert not bundle.exited.any()


def test_paths_kink_at_bright_fringe_boundaries(two_slit_run):
    # where a path crosses an odd-pi phase locus inside the overlap region,
    # its curvature must flip sign within one local fringe spacing
    system, bundle = two_slit_run
    times, pos = bundle.times, bundle.positions
    s1, s2, params = system.slit1, system.slit2, system.params

    def visibility(x, t):
        p1 = gaussian_density(s1, params, x, t)
        p2 = gaussian_density(s2, params, x, t)
        return 2.0 * np.sqrt(p1 * p2) / (p1 + p2)

    def phase_difference(x, t):
        return two_slit_fields(system, x, t).phase_difference

    checked = passed = 0
    for k in range(pos.shape[1]):
        x = pos[:, k]
        phi = phase_difference(x, times)
        level = np.floor((phi - np.pi) / (2.0 * np.pi))
        crossings = np.where(np.diff(level) != 0)[0]
        if crossings.size == 0:
            continue
        curv = np.zeros_like(x)
        curv[1:-1] = x[2:] - 2.0 * x[1:-1] + x[:-2]
        sign = np.sign(curv)
        for ci in crossings:
            t_c, x_c = times[ci], x[ci]
            if visibility(x_c, t_c) < 0.05:
                continue  # fringes too washed out to carry a kink
            h = 1e-6
            slope = abs(phase_difference(x_c + h, t_c)
                        - phase_difference(x_c - h, t_c)) / (2.0 * h)
            if slope == 0.0:
                continue
            spacing = 2.0 * math.pi / slope
            window = (np.abs(x - x_c) <= spacing) & (np.abs(times - t_c) <= 3.0)
            local = sign[window & (sign != 0.0)]
            checked += 1
            if local.size and local.min() < 0.0 < local.max():
                passed += 1
    assert checked >= 10
    assert passed == checked
