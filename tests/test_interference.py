import math
import os
import threading
import tracemalloc
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from ballistic import interference
from ballistic import (
    DoubleSlitSystem,
    Grid,
    ParameterError,
    PhaseShifterSchedule,
    PhysicalParams,
    SlitSource,
    field_velocity,
    gaussian_density,
    intensity_grid,
    osmotic_velocity,
    phase,
    total_velocity,
    two_slit_fields,
)

# frozen reference: mirrored slits at -/+2, sigma01=1, sigma02=0.5, v=0,
# x=0, t=2 gives 1 * (1*4/4.25 - 0.25*4/2) = 15/34, evaluated independently
PHI_MIXED_WIDTHS = 0.4411764705882353


def force_cpus(monkeypatch, count):
    # intensity_grid starts one worker per CPU the process may use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def mirrored(params, shifter=None, **kw):
    return DoubleSlitSystem(
        slit1=SlitSource(center=-4.0),
        slit2=SlitSource(center=4.0),
        params=params,
        shifter=shifter,
        **kw,
    )


# --- shifter schedule ------------------------------------------------------

def test_shifter_ramp():
    sched = PhaseShifterSchedule(total_shift=3.0, t_start=2.0, t_end=4.0)
    assert sched.value_at(0.0) == 0.0
    assert sched.value_at(2.0) == 0.0
    assert sched.value_at(3.0) == pytest.approx(1.5)
    assert sched.value_at(4.0) == 3.0
    assert sched.value_at(10.0) == 3.0
    arr = sched.value_at(np.array([0.0, 3.0, 9.0]))
    assert arr.tolist() == [0.0, 1.5, 3.0]


def test_shifter_degenerate_step():
    sched = PhaseShifterSchedule(total_shift=2.0, t_start=1.0, t_end=1.0)
    assert sched.value_at(1.0) == 0.0           # switches just after t_start
    assert sched.value_at(1.0 + 1e-12) == 2.0
    assert sched.value_at(0.5) == 0.0


def test_shifter_validation():
    with pytest.raises(ParameterError):
        PhaseShifterSchedule(total_shift=1.0, t_start=-0.1, t_end=1.0)
    with pytest.raises(ParameterError):
        PhaseShifterSchedule(total_shift=1.0, t_start=2.0, t_end=1.0)
    for bad in (dict(total_shift=math.nan), dict(t_start=math.inf), dict(t_end=math.nan)):
        with pytest.raises(ParameterError, match="finite"):
            PhaseShifterSchedule(**{**dict(total_shift=1.0, t_start=0.0, t_end=1.0), **bad})


# --- system construction ---------------------------------------------------

def test_system_rejects_coincident_centers(params):
    with pytest.raises(ParameterError):
        DoubleSlitSystem(slit1=SlitSource(center=1.0), slit2=SlitSource(center=1.0), params=params)


def test_system_rejects_bad_blocked_index(params):
    with pytest.raises(ParameterError):
        mirrored(params, blocked_slit=3)


# --- phase difference ------------------------------------------------------

def test_phase_difference_symmetry_point(params):
    sys = mirrored(params)
    for t in (0.0, 1.0, 6.0):
        assert two_slit_fields(sys, 0.0, t).phase_difference == 0.0


def test_phase_difference_with_completed_shift(params):
    sched = PhaseShifterSchedule(total_shift=math.pi, t_start=0.5, t_end=1.0)
    sys = mirrored(params, shifter=sched)
    assert two_slit_fields(sys, 0.0, 2.0).phase_difference == -math.pi


def test_phase_difference_mixed_widths(params):
    sys = DoubleSlitSystem(
        slit1=SlitSource(center=-2.0, sigma0=1.0),
        slit2=SlitSource(center=2.0, sigma0=0.5),
        params=params,
    )
    phi = two_slit_fields(sys, 0.0, 2.0).phase_difference
    assert phi == pytest.approx(PHI_MIXED_WIDTHS, rel=1e-15)


def test_phase_difference_energy_flag(params):
    v1, v2, t = 0.3, 0.9, 2.0
    plain = DoubleSlitSystem(
        slit1=SlitSource(center=-4.0, drift=v1),
        slit2=SlitSource(center=4.0, drift=v2),
        params=params,
    )
    flagged = DoubleSlitSystem(
        slit1=SlitSource(center=-4.0, drift=v1),
        slit2=SlitSource(center=4.0, drift=v2),
        params=params,
        include_energy_term=True,
    )
    delta_e = 0.5 * params.mass * (v2 ** 2 - v1 ** 2)
    got = (two_slit_fields(plain, 1.0, t).phase_difference
           - two_slit_fields(flagged, 1.0, t).phase_difference)
    assert got == pytest.approx(delta_e * t / params.hbar, rel=1e-12)


# --- densities and currents ------------------------------------------------

def test_total_density_blocked_slit(params):
    sys = mirrored(params, blocked_slit=2)
    xs = np.linspace(-8.0, 8.0, 41)
    expected = gaussian_density(SlitSource(center=-4.0), params, xs, 1.5)
    assert two_slit_fields(sys, xs, 1.5).density == pytest.approx(expected, rel=1e-12)


def test_total_density_constructive_midpoint(params):
    sys = mirrored(params)
    p1 = gaussian_density(SlitSource(center=-4.0), params, 0.0, 6.0)
    assert two_slit_fields(sys, 0.0, 6.0).density == pytest.approx(4.0 * p1, rel=1e-14)


def test_total_density_destructive_null(params):
    sched = PhaseShifterSchedule(total_shift=math.pi, t_start=0.0, t_end=1.0)
    sys = mirrored(params, shifter=sched)
    # phi12(0, t>1) = -pi and P1 == P2 there, so the null is exact
    assert two_slit_fields(sys, 0.0, 6.0).density == pytest.approx(0.0, abs=1e-18)


@given(x=st.floats(min_value=-12.0, max_value=12.0),
       t=st.floats(min_value=0.0, max_value=20.0),
       shift=st.floats(min_value=-10.0, max_value=10.0))
def test_total_density_bounds(x, t, shift):
    p = PhysicalParams()
    sched = PhaseShifterSchedule(total_shift=shift, t_start=1.0, t_end=2.0)
    sys = DoubleSlitSystem(slit1=SlitSource(center=-4.0, sigma0=1.3),
                           slit2=SlitSource(center=4.0, sigma0=0.6),
                           params=p, shifter=sched)
    p1 = gaussian_density(sys.slit1, p, x, t)
    p2 = gaussian_density(sys.slit2, p, x, t)
    p_tot = two_slit_fields(sys, x, t).density
    envelope = (math.sqrt(p1) + math.sqrt(p2)) ** 2
    assert p_tot >= 0.0
    assert p_tot <= envelope * (1 + 1e-12) + 1e-300


def test_total_current_blocked_slit(params):
    sys = mirrored(params, blocked_slit=2)
    xs = np.linspace(-8.0, 8.0, 41)
    s1 = SlitSource(center=-4.0)
    expected = (gaussian_density(s1, params, xs, 2.0)
                * total_velocity(s1, params, xs, 2.0))
    assert two_slit_fields(sys, xs, 2.0).current == pytest.approx(expected, rel=1e-12)


def test_total_current_vanishes_at_midpoint(params):
    sys = mirrored(params)
    for t in (0.5, 3.0, 9.0):
        assert two_slit_fields(sys, 0.0, t).current == pytest.approx(0.0, abs=1e-16)


def test_current_equals_density_times_velocity(params):
    sys = mirrored(params)
    xs = np.linspace(-6.0, 6.0, 25)
    t = 4.0
    v = field_velocity(sys, xs, t)
    fields = two_slit_fields(sys, xs, t)
    p_tot, j = fields.density, fields.current
    ok = np.isfinite(v)
    assert ok.all()
    assert j == pytest.approx(p_tot * v, rel=1e-12, abs=1e-300)


def test_mirror_symmetry(params):
    sys = mirrored(params)
    xs = np.linspace(-10.0, 10.0, 801)
    for t in (0.0, 1.0, 3.7, 12.0):
        fields = two_slit_fields(sys, xs, t)
        p_tot, j_tot = fields.density, fields.current
        assert np.abs(p_tot - p_tot[::-1]).max() < 1e-14
        assert np.abs(j_tot + j_tot[::-1]).max() < 1e-14


def test_entangling_current_midpoint_exact_zero(params):
    sys = mirrored(params)
    # equal widths make the spreading terms cancel exactly at x=0
    assert two_slit_fields(sys, 0.0, 5.0).entangling_current == 0.0


def test_entangling_current_vanishes_at_phase_roots(params):
    sys = mirrored(params)
    t = 6.0
    xs = np.linspace(-10.0, 10.0, 801)
    for n in (-2, -1, 1, 2):
        f = lambda x: two_slit_fields(sys, x, t).phase_difference - n * math.pi
        vals = f(xs)
        brackets = np.where(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        assert brackets.size > 0
        root = brentq(f, xs[brackets[0]], xs[brackets[0] + 1], xtol=1e-14)
        assert abs(two_slit_fields(sys, root, t).entangling_current) < 1e-12


def test_field_velocity_blocked_reduction(params):
    sys = mirrored(params, blocked_slit=2)
    xs = np.linspace(-9.0, 1.0, 201)
    v = field_velocity(sys, xs, 6.0)
    expected = total_velocity(SlitSource(center=-4.0), params, xs, 6.0)
    assert np.isfinite(v).all()
    assert v == pytest.approx(expected, rel=1e-12)


def test_field_velocity_undefined_below_floor(params):
    sys = mirrored(params)
    # at x = 1e4 both Gaussians underflow to zero density
    assert math.isnan(field_velocity(sys, 1e4, 1.0))
    sched = PhaseShifterSchedule(total_shift=math.pi, t_start=0.0, t_end=0.5)
    nulled = mirrored(params, shifter=sched)
    assert math.isnan(field_velocity(nulled, 0.0, 6.0))


# --- grid evaluation -------------------------------------------------------

def test_intensity_grid_shapes_and_t0(params):
    sys = mirrored(params)
    grid = Grid(x_min=-10.0, x_max=10.0, nx=201, t_max=12.0, nt=100)
    bundle = intensity_grid(sys, grid)
    assert list(bundle) == ["density", "phase_difference", "entangling_current"]
    for field in bundle.values():
        assert field.values.shape == (101, 201)
        assert field.grid is grid
    expected = two_slit_fields(sys, grid.x(), 0.0).density
    assert bundle["density"].values[0] == pytest.approx(expected, rel=1e-15)


def test_intensity_grid_density_nonnegative(params):
    sched = PhaseShifterSchedule(total_shift=3 * math.pi, t_start=2.0, t_end=4.0)
    sys = mirrored(params, shifter=sched)
    grid = Grid(x_min=-10.0, x_max=10.0, nx=201, t_max=12.0, nt=100)
    assert intensity_grid(sys, grid)["density"].values.min() >= 0.0


@pytest.mark.parametrize("cpus", [1, 2, 4, 8])
@pytest.mark.parametrize("nt, nx", [(2000, 201), (200, 2001)], ids=["tall", "wide"])
def test_intensity_grid_holds_three_fields_at_peak(params, monkeypatch, nt, nx, cpus):
    # the three output fields, each taken over by its ScalarField without a
    # copy, plus GRID_CELLS cells of scratch in four arrays, shared by the
    # workers whatever their number
    force_cpus(monkeypatch, cpus)
    grid = Grid(x_min=-10.0, x_max=10.0, nx=nx, t_max=12.0, nt=nt)
    tracemalloc.start()
    try:
        bundle = intensity_grid(mirrored(params), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6 * bundle["density"].values.nbytes


def spy_on_blocks(monkeypatch, before_block):
    """Run before_block() ahead of every block of intensity_grid.  The first
    two blocks wait for each other, so that two workers run blocks."""
    both_started = threading.Barrier(2, timeout=30)
    block, started = interference._grid_block, []

    def spied(*args):
        started.append(None)
        if len(started) <= 2:
            both_started.wait()
        before_block()
        block(*args)

    monkeypatch.setattr(interference, "_grid_block", spied)


def test_intensity_grid_workers_share_the_callers_error_state(params, monkeypatch):
    force_cpus(monkeypatch, 2)
    monkeypatch.setattr(interference, "GRID_CELLS", 2 * 3 * 21)  # 3 rows a block
    seen = []
    spy_on_blocks(monkeypatch, lambda: seen.append((threading.get_ident(), np.geterr())))
    grid = Grid(x_min=-10.0, x_max=10.0, nx=21, t_max=12.0, nt=40)
    threads = threading.active_count()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = np.geterr()
        intensity_grid(mirrored(params), grid)
    assert threading.active_count() == threads
    assert len(seen) == 14 and len({ident for ident, _ in seen}) == 2
    assert all(errors == state for _, errors in seen)


@pytest.mark.parametrize("cpus", [1, 2])
def test_intensity_grid_overflow_raises_under_raise_state(params, monkeypatch, cpus):
    force_cpus(monkeypatch, cpus)
    monkeypatch.setattr(interference, "GRID_CELLS", cpus * 3 * 21)
    system = DoubleSlitSystem(slit1=SlitSource(center=-4.0, drift=1e300),
                              slit2=SlitSource(center=4.0), params=params)
    grid = Grid(x_min=-10.0, x_max=10.0, nx=21, t_max=12.0, nt=40)
    threads = threading.active_count()
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        intensity_grid(system, grid)
    assert threading.active_count() == threads


def test_intensity_grid_raises_a_helper_threads_error_after_joining(params, monkeypatch):
    # only the thread the call started fails; the caller's thread finishes
    # its blocks and then raises that error, with no thread left running
    force_cpus(monkeypatch, 2)
    monkeypatch.setattr(interference, "GRID_CELLS", 2 * 3 * 21)
    caller = threading.get_ident()

    def fail_off_the_caller():
        if threading.get_ident() != caller:
            raise LookupError("helper block")

    spy_on_blocks(monkeypatch, fail_off_the_caller)
    grid = Grid(x_min=-10.0, x_max=10.0, nx=21, t_max=12.0, nt=40)
    threads = threading.active_count()
    with pytest.raises(LookupError, match="helper block"):
        intensity_grid(mirrored(params), grid)
    assert threading.active_count() == threads


def test_intensity_grid_under_frequent_thread_switches(params, monkeypatch):
    # more workers than cores and one row a block: a block that racing
    # workers lost would leave its rows unwritten
    force_cpus(monkeypatch, 8)
    monkeypatch.setattr(interference, "GRID_CELLS", 8 * 21)
    system = mirrored(params, shifter=PhaseShifterSchedule(total_shift=2.0, t_start=1.0, t_end=5.0))
    grid = Grid(x_min=-10.0, x_max=10.0, nx=21, t_max=12.0, nt=400)
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        bundle = intensity_grid(system, grid)
    finally:
        setswitchinterval(interval)
    pointwise = two_slit_fields(system, grid.x(), grid.times()[:, None])
    for name, field in bundle.items():
        assert field.values.tobytes() == getattr(pointwise, name).tobytes(), name


@given(k=st.integers(min_value=-3, max_value=3))
def test_shift_equivalence_mod_two_pi(k):
    # schedules whose totals differ by 2 pi k give the same late pattern
    p = PhysicalParams()
    base = PhaseShifterSchedule(total_shift=1.1, t_start=1.0, t_end=2.0)
    alt = PhaseShifterSchedule(total_shift=1.1 + 2 * math.pi * k, t_start=0.5, t_end=1.5)
    a = mirrored(p, shifter=base)
    b = mirrored(p, shifter=alt)
    xs = np.linspace(-10.0, 10.0, 101)
    for t in (2.0, 5.0):
        gap = two_slit_fields(a, xs, t).density - two_slit_fields(b, xs, t).density
        assert np.abs(gap).max() < 1e-12


# --- kernel equivalence ----------------------------------------------------
# A reference built from the single-slit closed forms in `analytic`, one
# quantity at a time, as the two-slit fields are defined.

def reference_fields(system, x, t):
    p = system.params
    s1, s2 = system.slit1, system.slit2
    p1 = gaussian_density(s1, p, x, t) * (system.blocked_slit != 1)
    p2 = gaussian_density(s2, p, x, t) * (system.blocked_slit != 2)
    v1, v2 = total_velocity(s1, p, x, t), total_velocity(s2, p, x, t)
    u1, u2 = osmotic_velocity(s1, p, x, t), osmotic_velocity(s2, p, x, t)
    # phase() carries the drift kinetic energy unless told otherwise
    energy = None if system.include_energy_term else 0.0
    phi = phase(s2, p, x, t, energy=energy) - phase(s1, p, x, t, energy=energy)
    sched = system.shifter
    if sched is not None:
        t_arr = np.asarray(t, dtype=float)
        if sched.t_end > sched.t_start:
            frac = np.clip((t_arr - sched.t_start) / (sched.t_end - sched.t_start), 0.0, 1.0)
        else:
            frac = (t_arr > sched.t_start).astype(float)
        phi = phi - sched.total_shift * frac
    cross = np.sqrt(p1 * p2)
    density = p1 + p2 + 2.0 * cross * np.cos(phi)
    entangling = cross * (u1 - u2) * np.sin(phi)
    current = p1 * v1 + p2 * v2 + cross * (v1 + v2) * np.cos(phi) + entangling
    return {
        "density": density,
        "phase_difference": phi,
        "entangling_current": entangling,
        "current": current,
        "velocity": current / np.where(density > 0, density, 1.0),
        "envelope": (np.sqrt(p1) + np.sqrt(p2)) ** 2,
    }


@st.composite
def two_slit_systems(draw):
    slit = lambda lo, hi: SlitSource(
        center=draw(st.floats(min_value=lo, max_value=hi)),
        sigma0=draw(st.floats(min_value=0.3, max_value=2.0)),
        drift=draw(st.floats(min_value=-2.0, max_value=2.0)),
    )
    params = PhysicalParams(hbar=draw(st.floats(min_value=0.5, max_value=2.0)),
                            mass=draw(st.floats(min_value=0.5, max_value=2.0)))
    kind = draw(st.sampled_from(["none", "ramp", "step"]))
    shifter = None
    if kind != "none":
        start = draw(st.floats(min_value=0.0, max_value=5.0))
        width = draw(st.floats(min_value=0.1, max_value=3.0)) if kind == "ramp" else 0.0
        shifter = PhaseShifterSchedule(total_shift=draw(st.floats(min_value=-10.0, max_value=10.0)),
                                       t_start=start, t_end=start + width)
    return DoubleSlitSystem(slit1=slit(-6.0, -1.0), slit2=slit(1.0, 6.0), params=params,
                            shifter=shifter,
                            include_energy_term=draw(st.booleans()),
                            blocked_slit=draw(st.sampled_from([None, 1, 2])))


@st.composite
def sample_points(draw):
    """x and t as scalars, 1-d arrays or a broadcast (t, x) grid."""
    xs = st.floats(min_value=-12.0, max_value=12.0)
    ts = st.floats(min_value=0.0, max_value=10.0)
    layout = draw(st.sampled_from(["scalar", "x_array", "t_array", "grid"]))
    if layout == "scalar":
        return draw(xs), draw(ts)
    x_arr = np.array(draw(st.lists(xs, min_size=1, max_size=9)))
    t_arr = np.array(draw(st.lists(ts, min_size=1, max_size=9)))
    if layout == "x_array":
        return x_arr, draw(ts)
    if layout == "t_array":
        return draw(xs), t_arr
    return x_arr[None, :], t_arr[:, None]


@given(system=two_slit_systems(), point=sample_points())
def test_fields_match_single_slit_closed_forms(system, point):
    x, t = point
    ref = reference_fields(system, x, t)
    for name, got in two_slit_fields(system, x, t)._asdict().items():
        assert np.shape(got) == np.broadcast_shapes(np.shape(x), np.shape(t))
        assert np.allclose(got, ref[name], rtol=1e-12, atol=1e-12), name
    # J / P is compared where P is not a near-cancellation of the envelope;
    # closer to a null any rounding of P is amplified without bound
    velocity = np.broadcast_to(field_velocity(system, x, t), np.shape(ref["envelope"]))
    conditioned = ref["density"] > 0.1 * ref["envelope"]
    assert np.allclose(velocity[conditioned], ref["velocity"][conditioned],
                       rtol=1e-12, atol=1e-12)
    assert np.isnan(velocity[ref["envelope"] == 0.0]).all()


@given(system=two_slit_systems(), t=st.floats(min_value=0.0, max_value=10.0),
       x=st.lists(st.floats(min_value=-12.0, max_value=12.0), min_size=1, max_size=9))
def test_scalar_time_matches_a_time_column_to_rounding(system, t, x):
    # a scalar t's time factors are Python floats, whose pow rounds apart
    # from numpy's, so the two agree to rounding and not bit for bit
    x = np.array(x)
    scalar = two_slit_fields(system, x, t)
    column = two_slit_fields(system, x, np.array([t])[:, None])
    for name, got in scalar._asdict().items():
        want = getattr(column, name)[0]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


@pytest.mark.parametrize("t", [2.5, np.float64(2.5), np.float32(0.7), 2, np.array(0.7),
                               np.array(0.7, dtype=np.float32)],
                         ids=["float", "float64", "float32", "int", "0-d", "0-d_float32"])
def test_scalar_times_of_every_type_are_their_float(params, t):
    # every 0-d time is taken as float(t): a float32 keeps its own rounding
    # (0.699999988...), and a float or np.float64 is already that float
    sched = PhaseShifterSchedule(total_shift=2.5, t_start=0.5, t_end=3.0)
    system = DoubleSlitSystem(slit1=SlitSource(center=-3.0, sigma0=0.7, drift=0.2),
                              slit2=SlitSource(center=4.0, sigma0=1.1, drift=-0.4),
                              params=params, shifter=sched, include_energy_term=True)
    x = np.linspace(-8.0, 8.0, 33)
    got, want = two_slit_fields(system, x, t), two_slit_fields(system, x, float(t))
    for name in got._fields:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    value = sched.value_at(t)
    assert type(value) is float and value == sched.value_at(float(t))


def test_intensity_grid_matches_pointwise_fields(params, monkeypatch):
    sched = PhaseShifterSchedule(total_shift=2.5, t_start=1.0, t_end=3.0)
    sys = DoubleSlitSystem(slit1=SlitSource(center=-3.0, sigma0=0.7, drift=0.2),
                           slit2=SlitSource(center=4.0, sigma0=1.1, drift=-0.4),
                           params=params, shifter=sched, include_energy_term=True)
    # more rows than one evaluation block, and a partial last block
    monkeypatch.setattr(interference, "GRID_CELLS", 10 * 23)
    grid = Grid(x_min=-10.0, x_max=10.0, nx=23, t_max=7.0, nt=70)
    bundle = intensity_grid(sys, grid)
    # times as a column, as the grid holds them: for a scalar t the kernel's
    # time factors are Python floats, whose pow may round differently
    pointwise = two_slit_fields(sys, grid.x(), grid.times()[:, None])
    for name, field in bundle.items():
        for j, row in enumerate(getattr(pointwise, name)):
            assert field.values[j].tobytes() == row.tobytes(), (name, j)


@given(system=two_slit_systems(), nx=st.integers(min_value=3, max_value=9),
       nt=st.integers(min_value=1, max_value=12), cells=st.integers(min_value=1, max_value=60),
       cpus=st.sampled_from([1, 2]))
def test_intensity_grid_is_bit_identical_to_the_kernel(system, nx, nt, cells, cpus):
    # blocks of one row up to the whole grid, and a partial last block;
    # bytes are compared, so that a zero of the other sign counts
    grid = Grid(x_min=-12.0, x_max=12.0, nx=nx, t_max=10.0, nt=nt)
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_cpus(monkeypatch, cpus)
        monkeypatch.setattr(interference, "GRID_CELLS", cells)
        bundle = intensity_grid(system, grid)
    pointwise = two_slit_fields(system, grid.x(), grid.times()[:, None])
    for name, field in bundle.items():
        assert field.values.tobytes() == getattr(pointwise, name).tobytes(), name


# every two-slit quantity as a function of (system, x, t)
FIELDS = {
    "phase_difference": lambda system, x, t: two_slit_fields(system, x, t).phase_difference,
    "total_density": lambda system, x, t: two_slit_fields(system, x, t).density,
    "total_current": lambda system, x, t: two_slit_fields(system, x, t).current,
    "entangling_current": lambda system, x, t: two_slit_fields(system, x, t).entangling_current,
    "field_velocity": field_velocity,
}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("t", [-0.1, np.array([0.0, 1.0, -1e-9]), math.nan, math.inf,
                               np.array([0.0, math.nan])],
                         ids=["scalar", "array", "nan", "inf", "array_nan"])
def test_negative_time_rejected(params, field, t):
    with pytest.raises(ParameterError):
        FIELDS[field](mirrored(params), 0.5, t)
