"""The three CSV writers, byte for byte, against np.savetxt over the
column_stack of the file's columns: the formula the writers replaced, kept
here as the oracle.  Loading the files back (test_cli.py) cannot see a
changed digit, a dropped minus sign on -0 or a different exponent form.
write_pgm, which builds its pixels in blocks of rows, is held to the
whole-field formula it replaced the same way."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from ballistic import Grid, ScalarField, Seed, TrajectorySet
from ballistic import cli
from ballistic.cli import (
    load_scenario,
    run_scenario,
    write_field_csv,
    write_norm_trace_csv,
    write_pgm,
    write_trajectories_csv,
)

# signed zero, the smallest and largest subnormals, the finite extremes,
# a value with no exact binary form, the largest power of ten %.17g prints
# without an exponent, and integer-valued floats
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1.0, -3.0, 42.0)
finite = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2**53, 2**53).map(float))


def finite_arrays(shape):
    return arrays(np.float64, shape, elements=finite)


def savetxt_bytes(path, header, columns, fmt) -> bytes:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt, ",", header=header, comments="")
    return path.read_bytes()


def written_bytes(write, *args, path) -> bytes:
    write(*args, path)
    return path.read_bytes()


@st.composite
def fields(draw):
    x_min, x_max = sorted(draw(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2,
                                        unique=True)))
    grid = Grid(x_min=x_min, x_max=x_max, nx=draw(st.integers(3, 9)),
                t_max=draw(st.floats(5e-324, 1e300)), nt=draw(st.integers(1, 5)))
    return ScalarField(grid, draw(finite_arrays((grid.nt + 1, grid.nx))))


@st.composite
def bundles(draw):
    n_times, n_seeds = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    return TrajectorySet(seeds=tuple(Seed(1, float(i)) for i in range(n_seeds)),
                         times=draw(finite_arrays(n_times)),
                         positions=draw(finite_arrays((n_times, n_seeds))),
                         exited=np.zeros(n_seeds, dtype=bool))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@given(fields())
@example(ScalarField(Grid(x_min=-0.0, x_max=5e-324, nx=3, t_max=5e-324, nt=1),
                     np.array([[-0.0, 5e-324, 0.1], [1e16, -1.7976931348623157e308, 3.0]])))
def test_field_csv_bytes(workdir, field):
    grid = field.grid
    columns = [np.repeat(grid.times(), grid.nx), np.tile(grid.x(), grid.nt + 1), field.values.ravel()]
    expected = savetxt_bytes(workdir / "oracle.csv", "t,x,value", columns, "%.17g")
    assert written_bytes(write_field_csv, field, path=workdir / "field.csv") == expected


@given(bundles())
@example(TrajectorySet(seeds=(Seed(1, 0.0), Seed(2, 0.0)), times=np.array([-0.0]),
                       positions=np.array([[5e-324, -1.7976931348623157e308]]),
                       exited=np.zeros(2, dtype=bool)))
@example(TrajectorySet(seeds=(), times=np.array([0.0, 0.5]), positions=np.zeros((2, 0)),
                       exited=np.zeros(0, dtype=bool)))
def test_trajectories_csv_bytes(workdir, bundle):
    n_seeds, n_times = len(bundle.seeds), bundle.times.size
    columns = [np.repeat(np.arange(n_seeds), n_times), np.tile(bundle.times, n_seeds),
               bundle.positions.T.ravel()]
    expected = savetxt_bytes(workdir / "oracle.csv", "seed_id,t,x", columns, ["%d", "%.17g", "%.17g"])
    assert written_bytes(write_trajectories_csv, bundle, path=workdir / "paths.csv") == expected


@given(st.integers(1, 20).flatmap(lambda n: st.tuples(finite_arrays(n), finite_arrays(n))))
@example((np.array([0.1]), np.array([-0.0])))
def test_norm_trace_csv_bytes(workdir, trace):
    times, masses = trace
    expected = savetxt_bytes(workdir / "oracle.csv", "t,mass", [times, masses], "%.17g")
    assert written_bytes(write_norm_trace_csv, times, masses, path=workdir / "mass.csv") == expected


def test_norm_trace_csv_rejects_unequal_lengths(tmp_path):
    with pytest.raises(ValueError):
        write_norm_trace_csv(np.zeros(3), np.ones(2), tmp_path / "mass.csv")
    assert not (tmp_path / "mass.csv").exists()


def test_field_csv_memory_stays_below_field_size(tmp_path):
    # formatting batches, not the whole table: stacking the t, x and value
    # columns peaked at five times the field, 400 MB at the largest grid
    # a config may plan
    field = run_scenario(load_scenario("fig3a", ["output.select=density"])).outputs["density"]
    tracemalloc.start()
    try:
        write_field_csv(field, tmp_path / "density.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < field.values.nbytes


def whole_field_pgm_bytes(values, gamma, comment, signed) -> list[bytes]:
    """The images write_pgm wrote from whole-field arrays."""
    def p5(pixels, text):
        rows, cols = pixels.shape
        return f"P5\n# {text}\n{cols} {rows}\n255\n".encode("ascii") + pixels.tobytes()

    magnitudes = np.abs(values) if signed else np.clip(values, 0.0, None)
    v_max = float(magnitudes.max())
    pixels = np.rint(255.0 * (magnitudes / (v_max or 1.0)) ** gamma).astype(np.uint8)
    images = [p5(pixels, f"{comment} max={v_max:.17g}")]
    if signed:
        signs = np.where(values > 0, 255, np.where(values < 0, 0, 128)).astype(np.uint8)
        images.append(p5(signs, f"{comment} sign"))
    return images


@given(fields(), st.sampled_from([1.0, 0.5, 2.0, 0.3]), st.booleans(), st.integers(1, 60))
@example(ScalarField(Grid(x_min=0.0, x_max=1.0, nx=3, t_max=1.0, nt=1),
                     np.array([[-0.0, 0.0, -0.0], [-1.0, -0.0, -5e-324]])), 1.0, False, 1)
def test_pgm_bytes(workdir, field, gamma, signed, cells):
    # cells sets the block size: from one row per block to the whole field
    with mock.patch.object(cli, "_PGM_CELLS", cells):
        paths = write_pgm(field, workdir / "field.pgm", gamma, "fig test", signed)
    assert [p.read_bytes() for p in paths] == whole_field_pgm_bytes(field.values, gamma,
                                                                   "fig test", signed)


def test_pgm_memory_stays_below_field_size(tmp_path):
    # pixels and sign bytes in row blocks: the whole-field temporaries
    # peaked at three times the field
    result = run_scenario(load_scenario("fig3a", ["output.select=phase_difference"]))
    field = result.outputs["phase_difference"]
    tracemalloc.start()
    try:
        write_pgm(field, tmp_path / "phase.pgm", signed=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < field.values.nbytes
