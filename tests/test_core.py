import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ballistic
from ballistic import (
    Grid,
    ParameterError,
    PhysicalParams,
    ScalarField,
    SlitSource,
    check_stability,
    uncertainty_norm,
)

# frozen reference: hbar = 6.626e-34 / (2 pi), m = 9.109e-31, D = hbar / (2 m),
# evaluated independently at 40 decimal digits
D_ELECTRON = 5.7885643480453315e-05

sane_floats = st.floats(min_value=1e-6, max_value=1e6,
                        allow_nan=False, allow_infinity=False)


def test_natural_units_diffusivity():
    assert PhysicalParams().diffusivity == 0.5
    assert PhysicalParams(hbar=1.0, mass=0.5).diffusivity == 1.0


def test_si_diffusivity_matches_reference():
    p = PhysicalParams(hbar=6.626e-34 / (2 * math.pi), mass=9.109e-31)
    assert p.diffusivity == pytest.approx(D_ELECTRON, rel=1e-15)


@pytest.mark.parametrize("hbar,mass", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_params_reject_non_positive(hbar, mass):
    with pytest.raises(ParameterError):
        PhysicalParams(hbar=hbar, mass=mass)


@given(hbar=sane_floats, mass=sane_floats)
def test_diffusivity_einstein_identity(hbar, mass):
    p = PhysicalParams(hbar=hbar, mass=mass)
    assert p.diffusivity * 2.0 * mass == pytest.approx(hbar, rel=1e-15)


def test_slit_source_u0(params):
    s = SlitSource(center=1.0, sigma0=2.0)
    assert s.u0(params) == 0.25
    with pytest.raises(ParameterError):
        SlitSource(center=0.0, sigma0=0.0)


def test_uncertainty_norm_values(params):
    assert uncertainty_norm(params, SlitSource(center=0.0, sigma0=1.0)) == pytest.approx(1 / math.pi, rel=1e-15)
    assert uncertainty_norm(params, SlitSource(center=0.0, sigma0=0.37)) == pytest.approx(1 / math.pi, rel=1e-15)
    p2 = PhysicalParams(hbar=2.0, mass=1.0)
    assert uncertainty_norm(p2, SlitSource(center=0.0, sigma0=1.0)) == pytest.approx(0.15915494309189535, rel=1e-15)


@given(sigma0=sane_floats)
def test_uncertainty_norm_width_independent(sigma0):
    p = PhysicalParams()
    expected = 1.0 / (2.0 * math.pi * p.mass * p.diffusivity)
    got = uncertainty_norm(p, SlitSource(center=0.0, sigma0=sigma0))
    assert got == pytest.approx(expected, rel=5e-16)


def test_grid_spacings():
    g = Grid(x_min=-10.0, x_max=10.0, nx=801, t_max=2.0, nt=400)
    assert g.dx == pytest.approx(0.025, rel=1e-15)
    assert g.dt == 0.005
    xs = g.x()
    assert xs[0] == -10.0 and xs[-1] == 10.0 and xs.size == 801
    ts = g.times()
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(2.0) and ts.size == 401


@pytest.mark.parametrize("kw", [
    dict(x_min=1.0, x_max=0.0),
    dict(nx=2),
    dict(t_max=0.0),
    dict(t_max=-1.0),
    dict(nt=0),
])
def test_grid_validation(kw):
    base = dict(x_min=-1.0, x_max=1.0, nx=11, t_max=1.0, nt=10)
    base.update(kw)
    with pytest.raises(ParameterError):
        Grid(**base)


@pytest.mark.parametrize("build", [
    lambda v: PhysicalParams(hbar=v),
    lambda v: PhysicalParams(mass=v),
    lambda v: SlitSource(center=v),
    lambda v: SlitSource(sigma0=v),
    lambda v: SlitSource(drift=v),
    lambda v: Grid(x_min=v, x_max=1.0, nx=11, t_max=1.0, nt=10),
    lambda v: Grid(x_min=-1.0, x_max=v, nx=11, t_max=1.0, nt=10),
    lambda v: Grid(x_min=-1.0, x_max=1.0, nx=11, t_max=v, nt=10),
], ids=["hbar", "mass", "center", "sigma0", "drift", "x_min", "x_max", "t_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_value_objects_reject_non_finite(build, value):
    with pytest.raises(ParameterError, match="finite"):
        build(value)


def test_scalar_field_shape_and_immutability():
    g = Grid(x_min=0.0, x_max=1.0, nx=5, t_max=1.0, nt=2)
    values = np.zeros((3, 5))
    f = ScalarField(g, values)
    # a float64 array is taken over, not copied, and frozen for every name
    assert np.shares_memory(f.values, values)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        values[0, 0] = 7.0
    for other in (np.zeros((3, 5), dtype=int).tolist(), np.zeros((3, 5), dtype=int)):
        assert ScalarField(g, other).values.dtype == np.float64
    with pytest.raises(ParameterError):
        ScalarField(g, np.zeros((2, 5)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_field_rejects_non_finite_values(bad):
    g = Grid(x_min=0.0, x_max=1.0, nx=5, t_max=1.0, nt=2)
    values = np.zeros((3, 5))
    values[1, 2] = bad
    with pytest.raises(ParameterError, match="field values must be finite"):
        ScalarField(g, values)


def test_grid_rejects_span_past_float64():
    # both ends are finite, but x_max - x_min overflows to inf
    with pytest.raises(ParameterError, match="x_max - x_min must be finite"):
        Grid(x_min=-1e308, x_max=1e308, nx=11, t_max=1.0, nt=10)


def test_check_stability_hand_value(params):
    # sigma0=1, D=0.5, dx=0.1, t_max=2: D_t(2)=0.5 so the bound is
    # 0.01 / (2 * 0.25 * 2) = 0.01
    g = Grid(x_min=-5.0, x_max=5.0, nx=101, t_max=2.0, nt=100)
    rep = check_stability(g, SlitSource(center=0.0, sigma0=1.0), params)
    assert rep.max_allowed_dt == pytest.approx(0.01, rel=1e-12)
    assert not rep.ok  # requested dt = 0.02 exceeds the bound
    g2 = Grid(x_min=-5.0, x_max=5.0, nx=101, t_max=2.0, nt=400)
    assert check_stability(g2, SlitSource(center=0.0, sigma0=1.0), params).ok


def test_check_stability_short_run_unbinding(params, unit_source):
    g = Grid(x_min=-5.0, x_max=5.0, nx=101, t_max=1e-12, nt=1)
    rep = check_stability(g, unit_source, params)
    assert rep.max_allowed_dt > 1e10


def test_check_stability_dx_scaling(params, unit_source):
    # doubling dx quadruples the bound, exactly in floating point
    g1 = Grid(x_min=-8.0, x_max=8.0, nx=161, t_max=2.0, nt=100)
    g2 = Grid(x_min=-8.0, x_max=8.0, nx=81, t_max=2.0, nt=100)
    r1 = check_stability(g1, unit_source, params)
    r2 = check_stability(g2, unit_source, params)
    assert g2.dx == 2.0 * g1.dx
    assert r2.max_allowed_dt == 4.0 * r1.max_allowed_dt


@given(t1=st.floats(min_value=0.01, max_value=100.0),
       t2=st.floats(min_value=0.01, max_value=100.0))
def test_check_stability_monotone_in_t_max(t1, t2):
    p, s = PhysicalParams(), SlitSource(center=0.0, sigma0=1.0)
    lo, hi = sorted((t1, t2))
    g_lo = Grid(x_min=-5.0, x_max=5.0, nx=101, t_max=lo, nt=10)
    g_hi = Grid(x_min=-5.0, x_max=5.0, nx=101, t_max=hi, nt=10)
    assert (check_stability(g_hi, s, p).max_allowed_dt
            <= check_stability(g_lo, s, p).max_allowed_dt)


def test_stability_report_describe(params, unit_source):
    g = Grid(x_min=-5.0, x_max=5.0, nx=101, t_max=2.0, nt=10)
    text = check_stability(g, unit_source, params).describe()
    assert "dt" in text and "VIOLATED" in text


def test_package_exports_each_module_all():
    # the package root restates no name: it re-exports each module's __all__
    modules = (ballistic.core, ballistic.analytic, ballistic.interference,
               ballistic.fdm, ballistic.trajectories)
    names = ballistic.__all__
    assert len(names) == len(set(names)) == 38
    assert set(names) == {n for m in modules for n in m.__all__} | {"__version__"}
    assert all(hasattr(ballistic, name) for name in names)
