"""The three CSV writers, byte for byte, against np.savetxt over the
column_stack of the file's columns: the formula the writers replaced, kept
here as the oracle.  Loading the files back (test_cli.py) cannot see a
changed digit, a dropped minus sign on -0 or a different exponent form.
The writers format their rows in one process per usable CPU; with more
than one, they are held to their own one-process bytes, and every worker
process must be reaped and every temporary file gone, whether the write
succeeds or fails.  write_pgm, which builds its pixels in blocks of rows,
is held to the whole-field formula it replaced the same way."""

import errno
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from ballistic import Grid, ScalarField, TrajectorySet
from ballistic import cli
from ballistic.cli import (
    load_scenario,
    main,
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
    return TrajectorySet(times=draw(finite_arrays(n_times)),
                         positions=draw(finite_arrays((n_times, n_seeds))))


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
@example(TrajectorySet(times=np.array([-0.0]),
                       positions=np.array([[5e-324, -1.7976931348623157e308]])))
@example(TrajectorySet(times=np.array([0.0, 0.5]), positions=np.zeros((2, 0))))
def test_trajectories_csv_bytes(workdir, bundle):
    n_times, n_seeds = bundle.positions.shape
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


def force_cpus(monkeypatch, count):
    # the writers fork one worker per CPU the process may use, less one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_workers_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def writes():
    """(writer, arguments before the path) for each of the three writers."""
    traces = st.integers(1, 20).flatmap(lambda n: st.tuples(finite_arrays(n), finite_arrays(n)))
    return st.one_of(fields().map(lambda field: (write_field_csv, (field,))),
                     bundles().map(lambda bundle: (write_trajectories_csv, (bundle,))),
                     traces.map(lambda trace: (write_norm_trace_csv, trace)))


@pytest.fixture(scope="module")
def splitdir(tmp_path_factory):
    return tmp_path_factory.mktemp("split")


@given(writes(), st.sampled_from([2, 3, 5]), st.integers(1, 20))
def test_split_csv_bytes_match_one_part(splitdir, write, cpus, lines):
    # lines sets the batch, from one row to every row of these small
    # tables: from more batches than CPUs, with a short last range, to one
    writer, args = write
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "_CSV_LINES", lines)
        force_cpus(monkeypatch, 1)
        expected = written_bytes(writer, *args, path=splitdir / "one.csv")
        force_cpus(monkeypatch, cpus)
        assert written_bytes(writer, *args, path=splitdir / "split.csv") == expected
    assert_no_workers_left()
    assert sorted(os.listdir(splitdir)) == ["one.csv", "split.csv"]


def test_split_csv_without_a_process_to_spare(tmp_path, monkeypatch):
    # a fork that fails leaves its rows, and every later range, to the caller
    times, masses = np.arange(40.0), np.linspace(-1.0, 1.0, 40)
    monkeypatch.setattr(cli, "_CSV_LINES", 3)
    force_cpus(monkeypatch, 1)
    expected = written_bytes(write_norm_trace_csv, times, masses, path=tmp_path / "one.csv")
    forks = iter([os.fork, None])

    def fork_once():
        fork = next(forks)
        if fork is None:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    force_cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", fork_once)
    assert written_bytes(write_norm_trace_csv, times, masses, path=tmp_path / "split.csv") == expected
    assert_no_workers_left()
    assert sorted(os.listdir(tmp_path)) == ["one.csv", "split.csv"]


REAL_TEMPORARY_FILE = tempfile.TemporaryFile


class FailingPart:
    """A temporary file whose every write raises `error`, as a worker
    meeting a full disk does."""

    error: BaseException = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __init__(self, *args, **kwargs):
        self.file = REAL_TEMPORARY_FILE(*args, **kwargs)

    def write(self, data):
        raise self.error

    def __getattr__(self, name):
        return getattr(self.file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()


@pytest.mark.parametrize("error, code, message", [
    (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), errno.ENOSPC, os.strerror(errno.ENOSPC)),
    (MemoryError(), errno.EIO, "a CSV worker ended with status 255"),
])
def test_worker_failure_raises_naming_the_target(tmp_path, monkeypatch, error, code, message):
    monkeypatch.setattr(FailingPart, "error", error)
    monkeypatch.setattr(tempfile, "TemporaryFile", FailingPart)
    monkeypatch.setattr(cli, "_CSV_LINES", 2)
    force_cpus(monkeypatch, 3)
    target = tmp_path / "mass.csv"
    with pytest.raises(OSError) as raised:
        write_norm_trace_csv(np.arange(10.0), np.ones(10), target)
    assert (raised.value.errno, raised.value.filename) == (code, str(target))
    assert raised.value.strerror == message
    assert_no_workers_left()
    assert os.listdir(tmp_path) == ["mass.csv"]


def test_main_worker_failure_exits_2_naming_the_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tempfile, "TemporaryFile", FailingPart)
    force_cpus(monkeypatch, 2)
    out = tmp_path / "o"
    argv = ["fig3a", "--override", "grid.nx=201", "--override", "grid.nt=40",
            "--override", "output.select=density", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"cannot write {str(out / 'density.csv')!r}: "
                                       f"{os.strerror(errno.ENOSPC)}\n")
    assert_no_workers_left()
    assert os.listdir(tmp_path) == []


class FailingTarget:
    """The target file of a write whose caller meets a full disk on its
    own range, after the header."""

    def __init__(self, path, mode):
        self.file, self.writes = open(path, mode), 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.file.write(data)

    def __getattr__(self, name):
        return getattr(self.file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()


def test_caller_failure_still_reaps_its_workers(tmp_path, monkeypatch):
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(cli, "open", FailingTarget, raising=False)
    monkeypatch.setattr(cli, "_CSV_LINES", 2)
    force_cpus(monkeypatch, 3)
    target = tmp_path / "mass.csv"
    with pytest.raises(OSError) as raised:
        write_norm_trace_csv(np.arange(10.0), np.ones(10), target)
    assert (raised.value.errno, raised.value.filename) == (errno.ENOSPC, str(target))
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert_no_workers_left()
    assert os.listdir(tmp_path) == ["mass.csv"]


def test_workers_leave_buffered_stdout_to_the_caller(tmp_path):
    # stdout to a pipe is block-buffered, so "before" is still in the
    # buffer that each forked worker inherits: it must be written once
    script = (
        "import os, sys\n"
        "import numpy as np\n"
        "from ballistic import cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "cli._CSV_LINES = 4\n"
        "print('before')\n"
        "cli.write_norm_trace_csv(np.arange(40.0), np.ones(40), sys.argv[1])\n"
    )
    src = str(Path(cli.__file__).parents[1])
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "mass.csv")],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "before\n"
    assert (tmp_path / "mass.csv").read_bytes() == written_bytes(
        write_norm_trace_csv, np.arange(40.0), np.ones(40), path=tmp_path / "one.csv")


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
