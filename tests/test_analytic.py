import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import simpson

from ballistic import (
    ParameterError,
    PhysicalParams,
    SlitSource,
    closed_form_diffusivity,
    gaussian_density,
    kink_time,
    osmotic_velocity,
    phase,
    phase_space_density,
    sigma_at,
    total_velocity,
    trajectory_position,
)

# frozen references, evaluated independently at 40 decimal digits
SIGMA_HALF_AT_2 = 2.0615528128088303      # sqrt(0.25 + 1.0 * 4)
DENSITY_1_2 = 0.2196956447338612          # exp(-1/4) / (sqrt(2 pi) * sqrt(2))

widths = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def test_sigma_at_values(params, unit_source):
    assert sigma_at(unit_source, params, 0.0) == 1.0
    assert sigma_at(unit_source, params, 2.0) == math.sqrt(2.0)
    narrow = SlitSource(center=0.0, sigma0=0.5)
    assert sigma_at(narrow, params, 2.0) == pytest.approx(SIGMA_HALF_AT_2, rel=1e-15)


def test_sigma_at_rejects_negative_time(params, unit_source):
    with pytest.raises(ParameterError):
        sigma_at(unit_source, params, -0.1)


# NaN fails `t < 0` as well as `t >= 0`, so each of these once passed
TIME_CHECKED = {
    "sigma_at": sigma_at,
    "closed_form_diffusivity": closed_form_diffusivity,
    "phase": lambda src, p, t: phase(src, p, 0.5, t),
}


@pytest.mark.parametrize("function", TIME_CHECKED)
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, np.array([math.nan, 1.0]),
                               np.array([0.0, math.inf])],
                         ids=["nan", "inf", "-inf", "array_nan", "array_inf"])
def test_non_finite_time_rejected(params, unit_source, function, t):
    with pytest.raises(ParameterError, match="finite and >= 0"):
        TIME_CHECKED[function](unit_source, params, t)


@given(sigma0=widths, t=times)
def test_variance_growth_identity(sigma0, t):
    # sigma(t)^2 - sigma0^2 == (u0 t)^2, up to the final sqrt rounding
    p = PhysicalParams()
    s = SlitSource(center=0.0, sigma0=sigma0)
    u0t = s.u0(p) * t
    assert sigma_at(s, p, t) ** 2 == pytest.approx(sigma0 ** 2 + u0t ** 2, rel=4e-16)


def test_gaussian_density_values(params, unit_source):
    assert gaussian_density(unit_source, params, 0.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)
    assert gaussian_density(unit_source, params, 1.0, 2.0) == pytest.approx(DENSITY_1_2, rel=1e-15)


def test_gaussian_density_normalized(params, unit_source):
    xs = np.linspace(-40.0, 40.0, 8001)
    for t in (0.0, 1.0, 4.0):
        mass = np.trapezoid(gaussian_density(unit_source, params, xs, t), xs)
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_gaussian_density_tracks_moving_center(params):
    s = SlitSource(center=1.0, sigma0=1.0, drift=2.0)
    t = 3.0
    peak_x = 1.0 + 2.0 * t
    assert gaussian_density(s, params, peak_x, t) == pytest.approx(
        1 / (math.sqrt(2 * math.pi) * sigma_at(s, params, t)), rel=1e-15)


def test_phase_space_density_peak(params, unit_source):
    assert phase_space_density(unit_source, params, 0.0, 0.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-15)


def test_phase_space_density_symmetry(params, unit_source):
    for x, pm, t in [(0.7, 0.3, 1.5), (-1.2, 0.9, 0.4), (2.0, -1.1, 3.0)]:
        a = phase_space_density(unit_source, params, x, pm, t)
        b = phase_space_density(unit_source, params, -x, -pm, t)
        assert a == pytest.approx(b, rel=1e-15)


def test_phase_space_marginalizes_to_density(params):
    # composite Simpson over p in [-8 m u0, 8 m u0]; tails there are < 1e-14
    s = SlitSource(center=0.3, sigma0=1.0, drift=0.2)
    mu0 = params.mass * s.u0(params)
    ps = np.linspace(-8 * mu0, 8 * mu0, 401)
    for x in (-2.0, 0.0, 0.3, 1.5):
        for t in (0.0, 1.0, 3.0):
            marginal = simpson(phase_space_density(s, params, x, ps, t), x=ps)
            assert marginal == pytest.approx(gaussian_density(s, params, x, t), rel=1e-6)


def test_osmotic_velocity_values(params, unit_source):
    assert osmotic_velocity(unit_source, params, 0.0, 1.7) == 0.0
    assert osmotic_velocity(unit_source, params, 1.0, 0.0) == unit_source.u0(params)
    assert osmotic_velocity(unit_source, params, 2.0, 2.0) == pytest.approx(0.5, rel=1e-15)


@given(x=st.floats(min_value=-5.0, max_value=5.0), t=st.floats(min_value=0.0, max_value=10.0))
def test_osmotic_velocity_is_log_derivative(x, t):
    p = PhysicalParams()
    s = SlitSource(center=0.4, sigma0=1.3, drift=0.1)
    h = 1e-5
    grad = (gaussian_density(s, p, x + h, t) - gaussian_density(s, p, x - h, t)) / (2 * h)
    expected = -p.diffusivity * grad / gaussian_density(s, p, x, t)
    assert osmotic_velocity(s, p, x, t) == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_total_velocity_values(params, unit_source):
    drifting = SlitSource(center=1.0, sigma0=1.0, drift=0.7)
    t = 2.5
    assert total_velocity(drifting, params, 1.0 + 0.7 * t, t) == pytest.approx(0.7, rel=1e-15)
    assert total_velocity(drifting, params, -3.0, 0.0) == 0.7
    assert total_velocity(unit_source, params, 2.0, 2.0) == pytest.approx(0.5, rel=1e-15)


def test_total_velocity_is_trajectory_derivative(params):
    s = SlitSource(center=-0.5, sigma0=0.8, drift=0.3)
    h = 1e-5
    for xi0 in (-1.5, 0.2, 2.0):
        for t in (0.3, 1.0, 4.0):
            x_t = trajectory_position(s, params, xi0, t)
            dxdt = (trajectory_position(s, params, xi0, t + h)
                    - trajectory_position(s, params, xi0, t - h)) / (2 * h)
            assert total_velocity(s, params, x_t, t) == pytest.approx(dxdt, rel=1e-6, abs=1e-9)


def test_trajectory_position_center_is_classical(params):
    s = SlitSource(center=2.0, sigma0=1.0, drift=-0.4)
    for t in (0.0, 1.0, 10.0):
        assert trajectory_position(s, params, 0.0, t) == 2.0 - 0.4 * t


def test_trajectory_position_kink(params, unit_source):
    tk = kink_time(unit_source, params)
    assert trajectory_position(unit_source, params, 1.0, tk) == pytest.approx(math.sqrt(2.0), rel=1e-15)


@given(xi0=st.floats(min_value=-3.0, max_value=3.0), t=times)
def test_spreading_ratio_invariant(xi0, t):
    # xi(t) / sigma(t) stays equal to xi(0) / sigma0 along a path
    p = PhysicalParams()
    s = SlitSource(center=0.7, sigma0=1.4, drift=0.2)
    x_t = trajectory_position(s, p, xi0, t)
    xi_t = x_t - s.center - s.drift * t
    assert xi_t / sigma_at(s, p, t) == pytest.approx(xi0 / s.sigma0, rel=1e-12, abs=1e-12)


@given(a=st.floats(min_value=-3.0, max_value=3.0),
       b=st.floats(min_value=-3.0, max_value=3.0), t=times)
def test_trajectory_ordering_preserved(a, b, t):
    if a == b:
        return
    p = PhysicalParams()
    s = SlitSource(center=0.0, sigma0=1.0)
    lo, hi = sorted((a, b))
    assert trajectory_position(s, p, lo, t) < trajectory_position(s, p, hi, t)


def test_kink_time_values(params, unit_source):
    assert kink_time(unit_source, params) == 2.0
    assert kink_time(SlitSource(center=0.0, sigma0=math.sqrt(0.5)), params) == pytest.approx(1.0, rel=1e-15)


@given(sigma0=widths)
def test_kink_time_quarter_scaling(sigma0):
    # halving the width divides the kink time by exactly four
    p = PhysicalParams()
    tk = kink_time(SlitSource(center=0.0, sigma0=sigma0), p)
    tk_half = kink_time(SlitSource(center=0.0, sigma0=sigma0 / 2.0), p)
    assert tk_half == tk / 4.0


def test_closed_form_diffusivity_values(params, unit_source):
    assert closed_form_diffusivity(unit_source, params, 0.0) == 0.0
    tk = kink_time(unit_source, params)
    assert closed_form_diffusivity(unit_source, params, tk) == params.diffusivity
    assert closed_form_diffusivity(unit_source, params, 4.0) == pytest.approx(1.0, rel=1e-15)


@given(sigma0=widths)
def test_diffusivity_equals_einstein_constant_at_kink(sigma0):
    p = PhysicalParams()
    s = SlitSource(center=0.0, sigma0=sigma0)
    assert closed_form_diffusivity(s, p, kink_time(s, p)) == p.diffusivity


def test_phase_values(params, unit_source):
    # center line of a resting packet accumulates no phase
    for t in (0.0, 1.0, 5.0):
        assert phase(unit_source, params, 0.0, t) == 0.0
    # spreading term alone: (0.25 * 2 / 2) * (1 / sqrt(2))^2 = 0.125
    assert phase(unit_source, params, 1.0, 2.0) == pytest.approx(0.125, rel=1e-14)


def test_phase_default_energy_is_kinetic(params):
    # along the classical path the drift and energy terms leave m v^2 t / (2 hbar)
    s = SlitSource(center=0.0, sigma0=1.0, drift=0.8)
    t = 2.0
    x = s.drift * t
    expected = 0.5 * params.mass * s.drift ** 2 * t / params.hbar
    assert phase(s, params, x, t) == pytest.approx(expected, rel=1e-14)
    # an explicit zero energy removes that term
    drift_term = params.mass * s.drift * x / params.hbar
    assert phase(s, params, x, t, energy=0.0) == pytest.approx(drift_term, rel=1e-14)
