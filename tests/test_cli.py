import hashlib
import importlib
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ballistic import (
    Grid,
    ParameterError,
    ScalarField,
    Seed,
    TrajectorySet,
    gaussian_density,
)
from ballistic import cli
from ballistic.cli import (
    PRESETS,
    ConfigError,
    Scenario,
    load_scenario,
    main,
    parse_config,
    run_scenario,
    serialize_scenario,
    write_field_csv,
    write_norm_trace_csv,
    write_outputs,
    write_pgm,
    write_trajectories_csv,
)

TINY = """\
[grid]
x_min = -8.0
x_max = 8.0
nx = 65
t_max = 0.5
nt = 10

[slit1]
center = 0.0

[solver]
scheme = explicit

[output]
select = density, norm_trace
"""

BROKEN = """\
[grid]
x_min = -8.0
x_max = abc
nx = 65
t_max = 0.5
nt = 10
bogus = 1

[shifter]
total_shift = 1.0
t_start = 2.0
t_end = 1.0

[output]
select = density, wrong_name
"""

TWO_SLIT = """\
[grid]
x_min = -10.0
x_max = 10.0
nx = 201
t_max = 4.0
nt = 40

[slit1]
center = -4.0

[slit2]
center = 4.0

[trajectories]
count = 5
span = 2.0

[output]
select = density, phase_difference, entangling_current, trajectories
"""


# --- parsing ----------------------------------------------------------------

def test_parse_config_happy_path():
    sc = parse_config(TINY, name="tiny")
    assert sc.name == "tiny"
    assert sc.grid == Grid(x_min=-8.0, x_max=8.0, nx=65, t_max=0.5, nt=10)
    assert sc.slit1.center == 0.0 and sc.slit1.sigma0 == 1.0
    assert sc.slit2 is None and sc.shifter is None
    assert sc.solver.scheme == "explicit" and sc.solver.mode == "closed_form"
    assert sc.outputs == ("density", "norm_trace")


def test_parse_config_collects_every_error():
    with pytest.raises(ConfigError) as err:
        parse_config(BROKEN)
    found = err.value.errors
    assert len(found) == 6
    expected = [
        (0, "missing required section [slit1]"),
        (3, "x_max must be a number"),
        (7, "unknown key 'bogus' in section [grid]"),
        (9, "a phase shifter requires two sources"),
        (9, "t_end must be >= t_start"),
        (15, "unknown output 'wrong_name'"),
    ]
    for line, fragment in expected:
        assert any(ln == line and fragment in msg for ln, msg in found), (line, fragment)
    assert "line 3:" in str(err.value)


@pytest.mark.parametrize("text,fragment", [
    ("center = 1.0\n[slit1]\ncenter = 0.0", "before any [section]"),
    ("[grid]\n[grid]\nx_min = 0", "duplicate section"),
    ("[slit1]\ncenter = 1.0\ncenter = 2.0", "duplicate key"),
    ("[slit1]\ncenter 1.0", "expected 'key = value'"),
    ("[]\n", "empty section name"),
    ("[slit1]\n= 3.0", "missing key"),
])
def test_parse_config_syntax_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any(fragment in msg for _, msg in err.value.errors)


def test_parse_config_comments_and_spacing():
    sc = parse_config(TINY.replace("center = 0.0", "center = 0.0   # on axis"))
    assert sc.slit1.center == 0.0


def test_two_slit_outputs_need_second_source():
    text = TINY.replace("select = density, norm_trace", "select = density, phase_difference")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("requires two sources" in msg for _, msg in err.value.errors)


def test_solver_outputs_need_solver_section():
    text = TWO_SLIT.replace("select = density, phase_difference, entangling_current, trajectories",
                            "select = density, diffusivity")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("requires a [solver] section" in msg for _, msg in err.value.errors)


def test_coincident_slit_centers_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(TWO_SLIT.replace("center = 4.0", "center = -4.0"))
    assert any("distinct" in msg for _, msg in err.value.errors)


def test_solver_margin_reported_as_config_error():
    # the packet at -4 reaches sigma ~ 6.1 by t = 12; [-10, 10] cannot hold it
    with pytest.raises(ConfigError) as err:
        load_scenario("fig3a", overrides=["solver.scheme=implicit",
                                          "output.select=density, norm_trace"])
    assert any("margin" in msg for _, msg in err.value.errors)


# --- presets ----------------------------------------------------------------

def test_preset_names():
    assert sorted(PRESETS) == ["fig1", "fig3a", "fig3b", "fig4", "fig5"]


def test_presets_parse_clean():
    for name in PRESETS:
        sc = load_scenario(name)
        assert sc.name == name
        assert sc.outputs


def test_preset_geometries():
    one = load_scenario("fig1")
    assert one.slit2 is None
    assert one.solver.scheme == "implicit"
    assert one.grid.x_max == 35.0
    mixed = load_scenario("fig3b")
    assert mixed.slit2.sigma0 == 0.5
    ramp = load_scenario("fig4")
    assert ramp.shifter.total_shift == pytest.approx(3.0 * math.pi, rel=1e-15)
    assert (ramp.shifter.t_start, ramp.shifter.t_end) == (2.0, 4.0)
    late = load_scenario("fig5")
    assert late.shifter.total_shift == pytest.approx(5.0 * math.pi, rel=1e-15)
    assert (late.shifter.t_start, late.shifter.t_end) == (5.0, 7.0)


def test_serialize_round_trips_every_preset():
    for name in PRESETS:
        sc = load_scenario(name)
        again = parse_config(serialize_scenario(sc), name=sc.name)
        assert again == sc


def test_serialize_round_trips_custom_scenario():
    sc = parse_config(TWO_SLIT, name="custom")
    assert parse_config(serialize_scenario(sc), name="custom") == sc


# --- overrides --------------------------------------------------------------

def test_override_changes_one_value():
    sc = load_scenario("fig3a", overrides=["grid.nx=101"])
    assert sc.grid.nx == 101
    assert sc.grid.x_min == -10.0


def test_override_rejects_malformed_item():
    with pytest.raises(ConfigError) as err:
        load_scenario("fig3a", overrides=["grid.nx"])
    assert any("section.key=value" in msg for _, msg in err.value.errors)


def test_override_bad_value_reports_key():
    with pytest.raises(ConfigError) as err:
        load_scenario("fig3a", overrides=["grid.nx=lots"])
    assert any("must be an integer" in msg for _, msg in err.value.errors)


def test_load_scenario_reads_files(tmp_path):
    cfg = tmp_path / "mine.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    sc = load_scenario(str(cfg))
    assert sc.name == "mine"
    assert sc.grid.nx == 65


# --- running ----------------------------------------------------------------

def test_run_scenario_single_source_analytic_density():
    text = TINY.replace("[solver]\nscheme = explicit\n\n", "")
    sc = parse_config(text.replace("select = density, norm_trace", "select = density"))
    result = run_scenario(sc)
    grid = sc.grid
    expected = gaussian_density(sc.slit1, sc.params, grid.x()[None, :], grid.times()[:, None])
    assert np.array_equal(result.outputs["density"].values, expected)
    assert list(result.outputs) == ["density"]


def test_run_scenario_single_source_solver_density():
    sc = parse_config(TINY)
    result = run_scenario(sc)
    grid = sc.grid
    density = result.outputs["density"].values
    assert np.array_equal(density[0], gaussian_density(sc.slit1, sc.params, grid.x(), 0.0))
    exact = gaussian_density(sc.slit1, sc.params, grid.x()[None, :], grid.times()[:, None])
    assert not np.array_equal(density, exact)   # marched, not broadcast
    assert np.allclose(density, exact, atol=5e-3)
    assert list(result.outputs) == ["density", "norm_trace"]
    assert result.outputs["norm_trace"].shape == (grid.nt + 1,)


def test_run_scenario_two_sources():
    sc = parse_config(TWO_SLIT)
    result = run_scenario(sc)
    assert list(result.outputs) == ["density", "phase_difference", "entangling_current",
                                    "trajectories"]
    shape = (sc.grid.nt + 1, sc.grid.nx)
    assert all(result.outputs[name].values.shape == shape for name in list(result.outputs)[:3])
    bundle = result.outputs["trajectories"]
    assert len(bundle.seeds) == 10
    # default trajectory step is a quarter of the grid step
    assert bundle.times.size == 4 * sc.grid.nt + 1


def test_run_scenario_skips_unselected_fields():
    sc = parse_config(TWO_SLIT.replace(
        "select = density, phase_difference, entangling_current, trajectories",
        "select = density"))
    result = run_scenario(sc)
    assert list(result.outputs) == ["density"]


# --- file formats -----------------------------------------------------------

def small_field():
    grid = Grid(x_min=0.0, x_max=1.0, nx=3, t_max=1.0, nt=2)
    values = np.arange(9.0).reshape(3, 3) / 7.0
    return ScalarField(grid, values)


def test_field_csv_layout(tmp_path):
    field = small_field()
    path = tmp_path / "field.csv"
    write_field_csv(field, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 10
    assert lines[0] == "t,x,value"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0]
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 2].reshape(3, 3), field.values)
    assert np.array_equal(table[:, 0].reshape(3, 3)[:, 0], field.grid.times())


def test_trajectories_csv_layout(tmp_path):
    times = np.array([0.0, 0.5, 1.0])
    positions = np.array([[1.0, 2.0], [1.1, 2.2], [1.2, 2.4]])
    bundle = TrajectorySet(seeds=(Seed(1, -1.0), Seed(2, 1.0)), times=times,
                           positions=positions, exited=np.zeros(2, dtype=bool))
    path = tmp_path / "paths.csv"
    write_trajectories_csv(bundle, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "seed_id,t,x"
    assert len(lines) == 7
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(table[:3, 0], np.zeros(3))   # seed-major grouping
    assert np.array_equal(table[:3, 2], positions[:, 0])
    assert np.array_equal(table[3:, 2], positions[:, 1])


def test_trajectories_csv_empty_bundle(tmp_path):
    bundle = TrajectorySet(seeds=(), times=np.array([0.0]),
                           positions=np.zeros((1, 0)), exited=np.zeros(0, dtype=bool))
    path = tmp_path / "paths.csv"
    write_trajectories_csv(bundle, path)
    assert path.read_text() == "seed_id,t,x\n"


def test_norm_trace_csv(tmp_path):
    path = tmp_path / "mass.csv"
    write_norm_trace_csv(np.array([0.0, 0.1]), np.array([1.0, 0.999]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mass"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table[1, 1] == 0.999


def read_pgm(path):
    blob = path.read_bytes()
    magic, comment, dims, maxval, pixels = blob.split(b"\n", 4)
    cols, rows = (int(v) for v in dims.split())
    assert magic == b"P5" and maxval == b"255"
    return comment.decode(), (rows, cols), np.frombuffer(pixels, dtype=np.uint8).reshape(rows, cols)


def test_pgm_constant_field(tmp_path):
    grid = Grid(x_min=0.0, x_max=1.0, nx=3, t_max=1.0, nt=1)
    field = ScalarField(grid, np.full((2, 3), 0.7))
    path = tmp_path / "flat.pgm"
    write_pgm(field, path, comment="flat")
    comment, shape, pixels = read_pgm(path)
    assert shape == (2, 3)
    assert comment.startswith("# flat max=0.69999999999999996")
    assert np.array_equal(pixels, np.full((2, 3), 255, dtype=np.uint8))


def test_pgm_single_peak_and_size(tmp_path):
    grid = Grid(x_min=0.0, x_max=1.0, nx=4, t_max=1.0, nt=2)
    values = np.zeros((3, 4))
    values[1, 2] = 2.0
    path = tmp_path / "peak.pgm"
    write_pgm(ScalarField(grid, values), path)
    _, shape, pixels = read_pgm(path)
    assert (pixels == 255).sum() == 1
    assert pixels[1, 2] == 255 and pixels.sum() == 255
    header_len = len(path.read_bytes()) - 12
    assert 12 == shape[0] * shape[1]
    assert header_len == len(b"P5\n#  max=2\n4 3\n255\n")


def test_pgm_all_zero_field(tmp_path):
    grid = Grid(x_min=0.0, x_max=1.0, nx=3, t_max=1.0, nt=1)
    path = tmp_path / "zero.pgm"
    write_pgm(ScalarField(grid, np.zeros((2, 3))), path)
    _, _, pixels = read_pgm(path)
    assert not pixels.any()


def test_pgm_gamma(tmp_path):
    grid = Grid(x_min=0.0, x_max=1.0, nx=3, t_max=1.0, nt=1)
    values = np.array([[0.0, 0.25, 0.0], [1.0, 0.0, 0.0]])
    path = tmp_path / "g.pgm"
    write_pgm(ScalarField(grid, values), path, gamma=0.5)
    _, _, pixels = read_pgm(path)
    assert pixels[0, 1] == 128  # rint(255 * sqrt(0.25))
    with pytest.raises(ParameterError):
        write_pgm(ScalarField(grid, values), tmp_path / "bad.pgm", gamma=0.0)


def test_pgm_signed_companion(tmp_path):
    grid = Grid(x_min=0.0, x_max=1.0, nx=3, t_max=1.0, nt=1)
    values = np.array([[-2.0, 0.0, 1.0], [1.0, -0.5, 0.0]])
    path = tmp_path / "phase.pgm"
    assert write_pgm(ScalarField(grid, values), path, signed=True) == [
        path, tmp_path / "phase_sign.pgm"]
    assert write_pgm(ScalarField(grid, values), tmp_path / "plain.pgm") == [
        tmp_path / "plain.pgm"]
    assert not (tmp_path / "plain_sign.pgm").exists()
    _, _, magnitudes = read_pgm(path)
    assert magnitudes[0, 0] == 255          # |-2| is the largest magnitude
    comment, shape, signs = read_pgm(tmp_path / "phase_sign.pgm")
    assert comment == "#  sign"
    assert shape == (2, 3)
    assert np.array_equal(signs, np.array([[0, 128, 255], [255, 0, 128]], dtype=np.uint8))
    assert set(np.unique(signs)) <= {0, 128, 255}


def test_write_outputs_rejects_unknown_format(tmp_path):
    result = run_scenario(parse_config(TINY))
    with pytest.raises(ParameterError, match="format"):
        write_outputs(result, tmp_path / "o", formats=("bmp",))


def test_write_outputs_deterministic(tmp_path):
    result = run_scenario(parse_config(TWO_SLIT, name="two"))

    def digest(directory):
        paths = write_outputs(result, directory, formats=("csv", "pgm"))
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}

    first = digest(tmp_path / "a")
    second = digest(tmp_path / "b")
    assert first == second
    assert "scenario.txt" in first
    assert "phase_difference_sign.pgm" in first
    assert "density.csv" in first and "density.pgm" in first
    assert "trajectories.csv" in first


@pytest.mark.parametrize("text,formats,names", [
    (TWO_SLIT, ("pgm",), ["density.pgm", "phase_difference.pgm", "phase_difference_sign.pgm",
                          "entangling_current.pgm", "entangling_current_sign.pgm",
                          "trajectories.csv"]),
    (TINY, ("pgm",), ["density.pgm", "norm_trace.csv"]),
    (TINY, ("csv", "pgm"), ["density.csv", "density.pgm", "norm_trace.csv"]),
], ids=["two-slit-pgm", "solver-pgm", "solver-csv-pgm"])
def test_write_outputs_file_list(tmp_path, text, formats, names):
    # tables are csv whatever the formats; fields follow them, signed ones with a companion
    paths = write_outputs(run_scenario(parse_config(text)), tmp_path, formats=formats)
    assert [p.name for p in paths] == ["scenario.txt", *names]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["scenario.txt", *names])


def test_written_scenario_file_round_trips(tmp_path):
    sc = parse_config(TINY, name="tiny")
    paths = write_outputs(run_scenario(sc), tmp_path, formats=("csv",))
    config_path = next(p for p in paths if p.name == "scenario.txt")
    assert parse_config(config_path.read_text(), name="tiny") == sc


# --- entry point -------------------------------------------------------------

def test_main_runs_config_file(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    out = tmp_path / "results"
    assert main([str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("wrote ") == 3
    for name in ("scenario.txt", "density.csv", "norm_trace.csv"):
        assert (out / name).exists()


def test_main_accepts_overrides(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    out = tmp_path / "results"
    code = main([str(cfg), "--out", str(out), "--override", "grid.nx=33",
                 "--format", "csv,pgm"])
    assert code == 0
    capsys.readouterr()
    assert (out / "density.pgm").exists()
    assert "nx = 33" in (out / "scenario.txt").read_text()


def test_main_reports_config_errors(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(BROKEN, encoding="utf-8")
    assert main([str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "line 3" in captured.err


@pytest.mark.parametrize("target,override", [
    ("fig3a", "slit1.center=nan"),
    ("fig3a", "slit1.sigma0=inf"),
    ("fig3a", "params.hbar=inf"),
    ("fig3a", "grid.t_max=inf"),
    ("fig3a", "slit2.drift=nan"),
    ("fig4", "shifter.total_shift=nan"),
    ("fig3a", "trajectories.span=inf"),
    ("fig1", "solver.norm_tolerance=inf"),
    ("fig4", "trajectories.dt=inf"),
])
def test_main_rejects_non_finite_values(tmp_path, capsys, target, override):
    out = tmp_path / "results"
    assert main([target, "--out", str(out), "--override", override]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "finite" in err
    assert not out.exists()


def test_non_finite_errors_carry_section_line():
    with pytest.raises(ConfigError) as err:
        load_scenario("fig4", overrides=["slit1.center=nan", "shifter.t_end=inf"])
    found = dict(err.value.errors)
    sections = {name: lineno for lineno, name in enumerate(PRESETS["fig4"].splitlines(), 1)
                if name.startswith("[")}
    assert "center must be finite" in found[sections["[slit1]"]]
    assert "t_end must be finite" in found[sections["[shifter]"]]


def test_main_rejects_explicit_grid_unstable_before_t_max(tmp_path, capsys):
    # u0 t_max = 0.625 < sigma0 = 1.2: r passes 1/2 at t = 0.79 of 1.5, so
    # the run is a config error rather than a refusal mid-solve (exit 3)
    argv = ["fig1", "--out", str(tmp_path / "o")]
    for item in ("grid.x_min=-12", "grid.x_max=12", "grid.nx=241", "grid.t_max=1.5",
                 "grid.nt=40", "slit1.sigma0=1.2", "solver.scheme=explicit",
                 "output.select=density,norm_trace"):
        argv += ["--override", item]
    assert main(argv) == 2
    assert "explicit scheme rejected" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,where", [
    (("grid.nx=10000000", "grid.nt=10000000", "output.select=density"), "line 2: grid of"),
    (("trajectories.dt=1e-9", "output.select=trajectories"), "line 17: trajectory table"),
])
def test_main_rejects_oversized_plans(tmp_path, capsys, monkeypatch, overrides, where):
    def refuse(scenario):
        raise AssertionError("an oversized plan reached run_scenario")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    argv = ["fig3a", "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert where in err and "exceeds the limit" in err


@pytest.mark.parametrize("dt", ["12", "100"])
def test_main_rejects_trajectory_dt_past_horizon(tmp_path, capsys, monkeypatch, dt):
    def refuse(scenario):
        raise AssertionError("a trajectory step past t_max reached run_scenario")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    out = tmp_path / "o"
    assert main(["fig4", "--out", str(out), "--override", f"trajectories.dt={dt}",
                 "--override", "output.select=trajectories"]) == 2
    assert (f"line 22: trajectory dt must be < grid t_max = 12.0, got {float(dt)}"
            in capsys.readouterr().err)
    assert not out.exists()
    assert load_scenario("fig4", overrides=["trajectories.dt=11.9"]).trajectories.dt == 11.9


def test_render_figures_stops_at_first_failure(tmp_path, capsys, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "render_figures.py"
    spec = importlib.util.spec_from_file_location("render_figures", script)
    render_figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(render_figures)

    def refuse(scenario):
        raise AssertionError("a bad --gamma reached run_scenario")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    root = tmp_path / "figures"
    assert render_figures.main(["--out", str(root), "--gamma", "0"]) == 2
    assert "--gamma must be > 0" in capsys.readouterr().err
    assert not root.exists()


def test_main_missing_file(capsys):
    assert main(["no_such_file.cfg"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_main_rejects_undecodable_config(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(TINY.replace("[slit1]", "[slit1]  # \xe9cart").encode("latin-1"))
    out = tmp_path / "o"
    assert main([str(cfg), "--out", str(out)]) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_main_rejects_unusable_out_before_running(tmp_path, capsys, monkeypatch, under):
    def refuse(scenario):
        raise AssertionError("an unusable --out reached run_scenario")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory", encoding="utf-8")
    out = blocker / "o" if under else blocker
    assert main(["fig3a", "--out", str(out)]) == 2
    assert "cannot use --out" in capsys.readouterr().err


@pytest.mark.parametrize("target,overrides", [
    ("fig3a", ["grid.x_min=-1e308", "grid.x_max=1e308"]),
    ("fig1", ["slit1.sigma0=1e-200"]),
    ("fig4", ["slit1.sigma0=1e-200"]),
    ("fig4", ["slit1.drift=1e300"]),
    ("fig4", ["trajectories.span=1e308"]),
    ("fig1", ["params.mass=1e-200"]),
    ("fig1", ["params.hbar=1e-200", "solver.scheme=explicit"]),
], ids=["fig3a-x_span", "fig1-sigma0", "fig4-sigma0", "fig4-drift", "fig4-span", "fig1-mass",
        "fig1-hbar-explicit"])
def test_main_rejects_scales_out_of_float64_range(tmp_path, capsys, target, overrides):
    # each run used to raise a traceback or exit 0 with non-finite values
    argv = [target, "--out", str(tmp_path / "o"), "--override", "grid.nx=41",
            "--override", "grid.nt=20"]
    for item in overrides:
        argv += ["--override", item]
    with np.errstate(all="ignore"):
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err or "scales out of range" in err
    assert not list(tmp_path.rglob("*.csv"))
    assert not (tmp_path / "o").exists()


def test_main_rejects_unknown_format(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY, encoding="utf-8")
    assert main([str(cfg), "--format", "bmp"]) == 2
    assert "unsupported --format" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["0", "-1", "nan"])
def test_main_rejects_bad_gamma_before_running(tmp_path, capsys, monkeypatch, gamma):
    def refuse(scenario):
        raise AssertionError("a bad --gamma reached run_scenario")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    out = tmp_path / "o"
    assert main(["fig3a", "--out", str(out), "--format", "pgm", "--gamma", gamma]) == 2
    assert "--gamma must be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_tracer_wraps_existing_bindings(monkeypatch):
    # the benchmark's tracer replaces package bindings by name; a binding
    # renamed or deleted here would only fail the benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    original = cli.write_field_csv
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.write_field_csv is not original
    finally:
        tracer.close()
    assert cli.write_field_csv is original


def test_main_stability_abort(tmp_path, capsys):
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text(TINY.replace("[solver]\nscheme = explicit",
                                "[solver]\nmode = local_recursion\nscheme = explicit\n"
                                "norm_tolerance = 0.9"),
                   encoding="utf-8")
    assert main([str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "stability failure" in err
    assert "max allowed dt" in err
    assert "nan" not in err
    assert not (tmp_path / "o").exists()


def drain_config(tmp_path):
    drain = TINY.replace("[solver]\nscheme = explicit",
                         "[solver]\nmode = local_recursion\nscheme = implicit")
    drain = drain.replace("t_max = 0.5", "t_max = 2.0").replace("nt = 10", "nt = 40")
    drain = drain.replace("nx = 65", "nx = 161")
    cfg = tmp_path / "drain.cfg"
    cfg.write_text(drain, encoding="utf-8")
    return cfg


def test_main_norm_drift_abort(tmp_path, capsys):
    cfg = drain_config(tmp_path)
    assert main([str(cfg), "--out", str(tmp_path / "a" / "b" / "o")]) == 4
    assert "norm drift failure" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_main_failed_run_keeps_existing_out(tmp_path, capsys):
    cfg = drain_config(tmp_path)
    out = tmp_path / "kept"
    out.mkdir()
    assert main([str(cfg), "--out", str(out / "new")]) == 4
    assert out.is_dir() and not list(out.iterdir())


def test_main_out_of_range_run_prints_one_line(tmp_path, capsys):
    argv = ["fig4", "--out", str(tmp_path / "o"), "--override", "grid.nx=41",
            "--override", "grid.nt=20", "--override", "slit1.drift=1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == "scales out of range: field values must be finite\n"
    assert not (tmp_path / "o").exists()
