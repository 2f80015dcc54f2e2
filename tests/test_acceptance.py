"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible under pytest -s) and then
asserts, so a red run still shows the full scoreboard.  Numeric bounds are
frozen from independent measurements; see the repository notes for how each
one was derived.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import brentq

from ballistic import (
    DoubleSlitSystem,
    Grid,
    PhysicalParams,
    SlitSource,
    SolverConfig,
    check_stability,
    closed_form_diffusivity,
    field_velocity,
    gaussian_density,
    implicit_step,
    integrate,
    kink_time,
    phase_space_density,
    sigma_at,
    solve,
    total_velocity,
    trajectory_position,
    two_slit_fields,
    uncertainty_norm,
)
from ballistic.cli import load_scenario, run_scenario

PARAMS = PhysicalParams()
SOURCE = SlitSource(center=0.0, sigma0=1.0)


def report(num: int, label: str, checks: list[tuple[bool, str]]) -> None:
    ok = all(flag for flag, _ in checks)
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    for flag, detail in checks:
        assert flag, f"criterion {num:02d} ({label}): {detail}"


@pytest.fixture(scope="module")
def dispersion_grid():
    # tightest explicit grid on [-10, 10]: nt chosen from the stability bound
    probe = Grid(x_min=-10.0, x_max=10.0, nx=801, t_max=2.0, nt=1)
    max_dt = check_stability(probe, SOURCE, PARAMS).max_allowed_dt
    nt = math.ceil(probe.t_max / max_dt)
    grid = Grid(x_min=-10.0, x_max=10.0, nx=801, t_max=2.0, nt=nt)
    while not check_stability(grid, SOURCE, PARAMS).ok:
        nt += 1
        grid = Grid(x_min=-10.0, x_max=10.0, nx=801, t_max=2.0, nt=nt)
    return grid


@pytest.fixture(scope="module")
def explicit_run(dispersion_grid):
    config = SolverConfig(grid=dispersion_grid, source=SOURCE, params=PARAMS)
    start = time.perf_counter()
    result = solve(config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def implicit_run(dispersion_grid):
    config = SolverConfig(grid=dispersion_grid, source=SOURCE, params=PARAMS,
                          scheme="implicit")
    start = time.perf_counter()
    result = solve(config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig3a_run():
    return run_scenario(load_scenario("fig3a"))


@pytest.fixture(scope="module")
def fig4_run():
    return run_scenario(load_scenario("fig4"))


@pytest.fixture(scope="module")
def fig5_run():
    return run_scenario(load_scenario("fig5"))


def measured_sigma(grid: Grid, row: np.ndarray) -> float:
    xs = grid.x()
    return math.sqrt(float(np.sum(row * xs**2) / np.sum(row)))


def test_01_dispersion_law(dispersion_grid, explicit_run):
    result, runtime = explicit_run
    tk = kink_time(SOURCE, PARAMS)
    sig_exact = sigma_at(SOURCE, PARAMS, tk)
    sig_solver = measured_sigma(dispersion_grid, result.density.values[-1])
    rel = abs(sig_solver - sig_exact) / sig_exact
    report(1, "dispersion-law", [
        (sig_exact == math.sqrt(2.0), f"sigma(t_k) = {sig_exact!r}, want sqrt(2) exactly"),
        (rel < 0.01, f"solver width off by {rel:.3e} on nt={dispersion_grid.nt}"),
        (runtime < 5.0, f"explicit solve took {runtime:.2f} s"),
    ])


def test_02_kink_scaling():
    checks = []
    for sigma0 in (0.1, 0.7, 1.3, 2.0):
        whole = kink_time(SlitSource(center=0.0, sigma0=sigma0), PARAMS)
        half = kink_time(SlitSource(center=0.0, sigma0=sigma0 / 2.0), PARAMS)
        checks.append((half == whole / 4.0,
                       f"sigma0={sigma0}: t_k halved-width {half!r} != {whole!r}/4"))
    report(2, "kink-scaling", checks)


def test_03_diffusivity_identities(explicit_run):
    result, _ = explicit_run
    dvals = result.diffusivity.values
    steps = np.diff(dvals[:, 0])
    wobble = np.ptp(steps) / steps.mean()
    checks = [
        (np.ptp(dvals, axis=1).max() == 0.0, "coefficient rows must not vary in x"),
        (wobble <= 1e-11, f"coefficient growth rate wobbles by {wobble:.3e}"),
        (dvals[-1, 0] == PARAMS.diffusivity,
         f"coefficient at the kink row is {dvals[-1, 0]!r}, want D exactly"),
    ]
    for sigma0 in (0.5, 1.0, 2.0):
        src = SlitSource(center=0.0, sigma0=sigma0)
        got = closed_form_diffusivity(src, PARAMS, kink_time(src, PARAMS))
        checks.append((got == PARAMS.diffusivity,
                       f"sigma0={sigma0}: D_t(t_k) = {got!r}, want D exactly"))
    report(3, "diffusivity-identities", checks)


def test_04_mass_positivity(explicit_run):
    result, _ = explicit_run
    drift = np.abs(result.norm_trace - 1.0).max()
    report(4, "mass-positivity", [
        (drift <= 1e-6, f"mass drifted by {drift:.3e}"),
        (result.density.values.min() >= 0.0,
         f"density dipped to {result.density.values.min():.3e}"),
    ])


def test_05_uncertainty_norm():
    target = 1.0 / (2.0 * math.pi * PARAMS.mass * PARAMS.diffusivity)
    checks = [(uncertainty_norm(PARAMS, SOURCE) == pytest.approx(1.0 / math.pi, rel=1e-15),
               "natural-unit peak must equal 1/pi")]
    for sigma0 in np.logspace(-1, 1, 9):
        norm = uncertainty_norm(PARAMS, SlitSource(center=0.0, sigma0=float(sigma0)))
        err = abs(norm / target - 1.0)
        checks.append((err <= 5e-16,
                       f"sigma0={sigma0:.3g}: norm departs by {err:.2e}"))
    report(5, "uncertainty-norm", checks)


def test_06_marginalization():
    u0 = SOURCE.u0(PARAMS)
    p_nodes = np.linspace(-8.0 * PARAMS.mass * u0, 8.0 * PARAMS.mass * u0, 401)
    worst = 0.0
    for x in np.linspace(-4.0, 4.0, 10):
        for t in np.linspace(0.0, 4.0, 10):
            joint = phase_space_density(SOURCE, PARAMS, x, p_nodes, t)
            marginal = simpson(joint, x=p_nodes)
            direct = gaussian_density(SOURCE, PARAMS, x, t)
            worst = max(worst, abs(marginal / direct - 1.0))
    report(6, "marginalization", [
        (worst <= 1e-6, f"worst marginalization error {worst:.3e} over 100 samples"),
    ])


def test_07_interference_topology(fig3a_run, fig4_run, fig5_run):
    grid = fig3a_run.scenario.grid
    times = grid.times()
    center = grid.nx // 2

    # once both packets overlap enough, the symmetric point is the global peak
    half_sep = fig3a_run.scenario.slit2.center
    sig_req = 1.05 * half_sep / math.sqrt(2.0)
    t_threshold = 2.0 * math.sqrt(sig_req**2 - 1.0)
    rows = np.where(times >= t_threshold)[0]
    density_3a = fig3a_run.outputs["density"].values
    central_peak = all(int(np.argmax(density_3a[k])) == center for k in rows)

    # a completed odd-pi shift turns that peak into an exact null
    density_4 = fig4_run.outputs["density"].values
    late4 = np.where(times >= 4.5)[0]
    central_null = all(
        density_4[k, center] < density_4[k, center - 1]
        and density_4[k, center] < density_4[k, center + 1]
        for k in late4
    )

    # shifts differing by 2 pi are indistinguishable once both ramps finish
    tail = np.where(times > 7.0)[0]
    d_gap = np.abs(density_4[tail] - fig5_run.outputs["density"].values[tail]).max()
    e_gap = np.abs(fig4_run.outputs["entangling_current"].values[tail]
                   - fig5_run.outputs["entangling_current"].values[tail]).max()

    report(7, "interference-topology", [
        (rows.size > 200, f"only {rows.size} rows past the overlap threshold"),
        (central_peak, f"off-center maximum in some row with t >= {t_threshold:.3f}"),
        (central_null, "central point is not a strict local minimum after the shift"),
        (d_gap <= 1e-12, f"3pi vs 5pi late densities differ by {d_gap:.3e}"),
        (e_gap <= 1e-12, f"3pi vs 5pi late entangling currents differ by {e_gap:.3e}"),
    ])


def test_08_fringe_phase_coincidence():
    # far field: slit separation 400, screen window [-20, 20]
    system = DoubleSlitSystem(slit1=SlitSource(center=-200.0),
                              slit2=SlitSource(center=200.0), params=PARAMS)
    xs = np.linspace(-20.0, 20.0, 1601)
    dx = xs[1] - xs[0]

    def wrap(a):
        return (a + np.pi) % (2.0 * np.pi) - np.pi

    checks = []
    for t in (360.0, 420.0, 480.0):
        fields = two_slit_fields(system, xs, t)
        density, phi = fields.density, fields.phase_difference
        slope = np.abs(np.gradient(phi, xs))
        up = (density[1:-1] > density[:-2]) & (density[1:-1] >= density[2:])
        down = (density[1:-1] < density[:-2]) & (density[1:-1] <= density[2:])
        maxima = np.where(up)[0] + 1
        minima = np.where(down)[0] + 1
        off_max = (max(abs(wrap(phi[i])) / slope[i] for i in maxima)
                   if maxima.size else math.inf)
        off_min = (max(abs(wrap(phi[i] - np.pi)) / slope[i] for i in minima)
                   if minima.size else math.inf)
        checks.append((maxima.size >= 5 and minima.size >= 5,
                       f"t={t}: too few fringes ({maxima.size} maxima)"))
        checks.append((off_max <= dx,
                       f"t={t}: brightest points sit {off_max:.3e} from even-pi loci"))
        checks.append((off_min <= dx,
                       f"t={t}: darkest points sit {off_min:.3e} from odd-pi loci"))
    report(8, "fringe-phase-coincidence", checks)


def test_09_trajectory_oracle(fig3a_run):
    xi0 = np.linspace(-3.0, 3.0, 21)
    times, positions, _ = integrate(lambda x, t: total_velocity(SOURCE, PARAMS, x, t),
                                    SOURCE.center + xi0, 8.0, 400)
    exact = trajectory_position(SOURCE, PARAMS, xi0[None, :], times[:, None])
    rk4_err = float(np.abs(positions - exact).max())

    two_slit = fig3a_run.outputs["trajectories"]
    gaps = np.diff(two_slit.positions, axis=1)
    report(9, "trajectory-oracle", [
        (rk4_err <= 1e-4, f"integrator departs from the closed form by {rk4_err:.3e}"),
        (len(two_slit.seeds) == 42, f"expected 42 seeds, got {len(two_slit.seeds)}"),
        (bool(np.all(gaps > 0.0)), f"paths cross (min gap {gaps.min():.3e})"),
    ])


def test_10_current_consistency():
    system = DoubleSlitSystem(slit1=SlitSource(center=-4.0),
                              slit2=SlitSource(center=4.0), params=PARAMS)
    blocked = DoubleSlitSystem(slit1=SlitSource(center=-4.0),
                               slit2=SlitSource(center=4.0), params=PARAMS,
                               blocked_slit=2)
    xs = np.linspace(-9.0, 1.0, 201)
    t = 6.0
    v_gap = float(np.abs(field_velocity(blocked, xs, t)
                         - total_velocity(SlitSource(center=-4.0), PARAMS, xs, t)).max())

    worst_root_current = 0.0
    xs_scan = np.linspace(-10.0, 10.0, 801)
    for n in (-2, -1, 1, 2):
        vals = two_slit_fields(system, xs_scan, t).phase_difference - n * math.pi
        flips = np.where(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        root = brentq(lambda x: two_slit_fields(system, x, t).phase_difference - n * math.pi,
                      xs_scan[flips[0]], xs_scan[flips[0] + 1], xtol=1e-14)
        worst_root_current = max(worst_root_current,
                                 abs(two_slit_fields(system, root, t).entangling_current))
    report(10, "current-consistency", [
        (v_gap <= 1e-12, f"blocked-slit velocity departs by {v_gap:.3e}"),
        (worst_root_current <= 1e-12,
         f"entangling current at phase roots reaches {worst_root_current:.3e}"),
    ])


def test_11_scheme_cross_check(explicit_run, implicit_run):
    exp, _ = explicit_run
    imp, _ = implicit_run
    a, b = exp.density.values[-1], imp.density.values[-1]
    l2 = float(np.linalg.norm(a - b) / np.linalg.norm(a))
    imp_drift = np.abs(imp.norm_trace - 1.0).max()

    xs = np.linspace(-6.0, 6.0, 121)
    dx = xs[1] - xs[0]
    row = gaussian_density(SOURCE, PARAMS, xs, 0.0)
    hammered = implicit_step(row, 0.5, dx, 10.0 * dx**2 / 0.5)

    report(11, "scheme-cross-check", [
        (l2 <= 0.005, f"explicit and implicit final rows differ by {l2:.3e} in L2"),
        (imp.density.values.min() >= 0.0, "implicit scheme lost positivity"),
        (imp_drift <= 1e-6, f"implicit mass drifted by {imp_drift:.3e}"),
        (hammered.min() > 0.0, "implicit step at r = 10 lost positivity"),
        (hammered.max() <= row.max(), "implicit step at r = 10 amplified the peak"),
    ])
