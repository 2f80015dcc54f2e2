import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ballistic import (
    DoubleSlitSystem,
    ParameterError,
    PhysicalParams,
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
    bundle = double_slit_trajectories(system, count=21, span=3.0, t_max=12.0, steps=1600)
    return system, bundle


# --- seeding ----------------------------------------------------------------

def test_seed_positions_scale_with_width():
    assert seed_positions(SlitSource(center=0.0), 5, 2.0).tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
    narrow = seed_positions(SlitSource(center=7.0, sigma0=0.5), 3, 3.0)
    assert narrow.tolist() == [-1.5, 0.0, 1.5]


def test_seed_positions_single_seed_centers():
    assert seed_positions(SlitSource(center=3.0), 1, 2.0).tolist() == [0.0]


def test_seed_positions_validation():
    # the [trajectories] config section words its errors the same way
    src = SlitSource(center=0.0)
    with pytest.raises(ParameterError, match=r"^trajectory count must be >= 1, got 0$"):
        seed_positions(src, 0, 2.0)
    with pytest.raises(ParameterError, match=r"^trajectory count must be an integer, got 2\.5$"):
        seed_positions(src, 2.5, 2.0)
    with pytest.raises(ParameterError, match=r"^trajectory span must be finite and > 0, got 0\.0$"):
        seed_positions(src, 5, 0.0)
    with pytest.raises(ParameterError, match="finite"):
        seed_positions(src, 3, math.inf)
    with pytest.raises(ParameterError, match="finite"):
        seed_positions(src, 3, math.nan)


# --- container --------------------------------------------------------------

def test_trajectory_set_rejects_shape_mismatch():
    with pytest.raises(ParameterError, match="shape"):
        TrajectorySet(times=np.zeros(3), positions=np.zeros((2, 1)))
    with pytest.raises(ParameterError, match="shape"):  # one path, but not as a column
        TrajectorySet(times=np.zeros(2), positions=np.zeros(2))


def test_trajectory_set_rejects_nan():
    with pytest.raises(ParameterError, match="finite"):
        TrajectorySet(times=np.zeros(2), positions=np.array([[0.0], [math.nan]]))


def test_trajectory_set_is_read_only():
    times, positions = np.zeros(2), np.zeros((2, 1))
    ts = TrajectorySet(times=times, positions=positions)
    assert not ts.positions.flags.writeable
    assert not ts.times.flags.writeable
    # float64 arrays are taken over, not copied
    assert np.shares_memory(ts.times, times)
    assert np.shares_memory(ts.positions, positions)


def test_trajectory_set_accepts_empty_bundle():
    ts = TrajectorySet(times=np.array([0.0]), positions=np.zeros((1, 0)))
    assert ts.positions.shape == (1, 0)


# --- integrator vs closed form ----------------------------------------------

def one_packet(source, params):
    return lambda x, t: total_velocity(source, params, x, t)


def test_integrate_validation(params, unit_source):
    v = one_packet(unit_source, params)
    with pytest.raises(ParameterError):
        integrate(v, [0.0], 0.0, 100)
    with pytest.raises(ParameterError, match="steps"):
        integrate(v, [0.0], 1.0, 0)
    with pytest.raises(ParameterError, match="integer"):
        integrate(v, [0.0], 1.0, 2.5)  # arange(3.5) would end past t_max
    with pytest.raises(ParameterError, match="finite"):
        integrate(v, [0.0], math.inf, 10)


def test_single_slit_rejects_infinite_horizon(params, unit_source):
    with pytest.raises(ParameterError, match="finite"):
        single_slit_trajectories(unit_source, params, count=3, span=1.0, t_max=math.inf, steps=10)


@pytest.mark.parametrize("t_max, steps", [(8.0, 400), (1.0, 4), (6.0, 120)])
def test_single_slit_samples_the_integrator_times(params, unit_source, t_max, steps):
    bundle = single_slit_trajectories(unit_source, params, count=3, span=1.0, t_max=t_max,
                                      steps=steps)
    times, _, _ = integrate(one_packet(unit_source, params), [0.0], t_max, steps)
    assert bundle.times.tobytes() == times.tobytes()
    assert bundle.times.size == steps + 1
    assert bundle.times[-1] == t_max


def test_single_slit_paths_are_the_closed_form(params):
    src = SlitSource(center=1.5, sigma0=0.7, drift=-0.4)
    bundle = single_slit_trajectories(src, params, count=5, span=2.0, t_max=3.0, steps=30)
    offsets = seed_positions(src, 5, 2.0)
    assert np.array_equal(bundle.positions[0], src.center + offsets)
    exact = trajectory_position(src, params, offsets[None, :], bundle.times[:, None])
    assert np.array_equal(bundle.positions, exact)


def test_rk4_matches_algebraic_paths(params, unit_source):
    # frozen max error 2.1e-10 at 400 steps of 0.02
    xi0 = np.linspace(-3.0, 3.0, 21)
    times, pos, _ = integrate(one_packet(unit_source, params), xi0, 8.0, 400)
    exact = trajectory_position(unit_source, params, xi0[None, :], times[:, None])
    assert times[-1] == 8.0
    assert np.abs(pos - exact).max() < 1e-4


def test_center_seed_never_moves(params):
    src = SlitSource(center=2.5)
    _, pos, _ = integrate(one_packet(src, params), [2.5], 6.0, 120)
    assert np.array_equal(pos, np.full((121, 1), 2.5))


def test_drifting_center_seed_is_ballistic(params):
    src = SlitSource(center=0.0, drift=1.0)
    times, pos, _ = integrate(one_packet(src, params), [0.0], 4.0, 80)
    assert pos[:, 0] == pytest.approx(times, rel=1e-12, abs=1e-14)


def test_width_seed_passes_through_kink(params, unit_source):
    # the path seeded one width out sits at sqrt(2) sigma0 at the kink time
    tk = kink_time(unit_source, params)
    times, pos, _ = integrate(one_packet(unit_source, params), [-1.0, 0.0, 1.0], tk, 100)
    assert times[-1] == tk
    assert abs(pos[-1, 2] - math.sqrt(2.0)) < 1e-3


@settings(max_examples=40, deadline=None)
@given(a=st.floats(min_value=-3.0, max_value=3.0),
       b=st.floats(min_value=-3.0, max_value=3.0))
def test_integrated_paths_keep_order(a, b):
    assume(b - a > 1e-3)
    params = PhysicalParams()
    src = SlitSource(center=0.0, sigma0=0.8)
    _, pos, _ = integrate(one_packet(src, params), [a, b], 4.0, 80)
    assert np.all(pos[:, 1] - pos[:, 0] > 0.0)


# --- undefined velocity samples ---------------------------------------------

def unit_field(x, t):
    """Unit speed on [-1, 1], undefined (NaN) outside."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, 1.0, np.nan)


def test_integrator_holds_last_velocity_past_field_edge():
    _, pos, exited = integrate(unit_field, [0.5], 2.0, 200)
    # the path leaves the sampled window at t = 0.5 and coasts at the held speed
    assert pos[-1, 0] == pytest.approx(2.5, abs=1e-12)
    assert not exited[0]


def test_integrator_freezes_on_domain_exit():
    _, pos, exited = integrate(unit_field, [0.5], 2.0, 200, domain=(-2.0, 1.2))
    assert exited[0]
    assert pos[-1, 0] <= 1.2
    assert np.ptp(pos[-50:, 0]) == 0.0


def test_integrator_static_when_undefined_from_start():
    _, pos, _ = integrate(unit_field, [3.0], 1.0, 10)
    assert np.ptp(pos[:, 0]) == 0.0


# --- two-slit bundles -------------------------------------------------------

def test_double_slit_seed_bundle_layout(two_slit_run):
    # one column per path, slit 1's 21 first, each starting at its seed
    system, bundle = two_slit_run
    assert bundle.positions.shape == (bundle.times.size, 42)
    for columns, slit in ((slice(0, 21), system.slit1), (slice(21, 42), system.slit2)):
        start = slit.center + seed_positions(slit, 21, 3.0)
        assert np.array_equal(bundle.positions[0, columns], start)
    assert np.array_equal(seed_positions(system.slit1, 21, 3.0), np.linspace(-3.0, 3.0, 21))


def test_double_slit_paths_never_cross(two_slit_run):
    _, bundle = two_slit_run
    gaps = np.diff(bundle.positions, axis=1)
    assert np.all(gaps > 0.0)


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
