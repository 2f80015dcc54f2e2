"""Config text and --override items, fuzzed through `cli.main`.

Whatever the input, a run ends in a documented exit code (0, 2, 3 or 4),
never in an escaped exception, and a run that exits 0 writes only finite
values.  The grids are capped small by final overrides, so every draw that
parses also runs.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from ballistic import cli

# every section and key with a value that runs, plus a stray section
SANE = {
    "params": {"hbar": "1.0", "mass": "1.0"},
    "grid": {"x_min": "-10.0", "x_max": "10.0", "nx": "41", "t_max": "2.0", "nt": "20"},
    "slit1": {"center": "-4.0", "sigma0": "1.0", "drift": "0.0"},
    "slit2": {"center": "4.0", "sigma0": "0.5", "drift": "0.0"},
    "shifter": {"total_shift": "3.0", "t_start": "0.5", "t_end": "1.0"},
    "solver": {"mode": "closed_form", "scheme": "implicit", "source": "1",
               "norm_tolerance": "0.1"},
    "trajectories": {"count": "3", "span": "2.0", "dt": "0.1"},
    "output": {"select": "density"},
    "bogus": {"key": "1"},
}
REQUIRED = ("grid", "slit1", "output")
MAGNITUDES = [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300, 1e308]
NUMBERS = [*MAGNITUDES, *(-m for m in MAGNITUDES), 0.0, 0.5, 1.0, 12.0, -1.0]
NUMERIC_KEYS = [f"{section}.{key}" for section in SANE for key in SANE[section]
                if f"{section}.{key}" not in ("solver.mode", "solver.scheme", "output.select",
                                              "bogus.key")]

numbers = st.sampled_from(NUMBERS).map(repr)
values = st.one_of(
    numbers,
    st.sampled_from(["0", "1", "3", "nan", "inf", "-inf", "1e309", "", "abc",
                     "closed_form", "local_recursion", "explicit", "implicit"]),
    st.lists(st.sampled_from(list(cli.OUTPUTS)), min_size=1, max_size=4).map(", ".join),
)


def value_for(section: str, key: str):
    return st.one_of(st.just(SANE[section][key]), values)


@st.composite
def config_texts(draw):
    """The required sections and any others, in any order, each key sane,
    fuzzed or missing; now and then a line that is not config at all."""
    chosen = [s for s in SANE if s in REQUIRED or draw(st.booleans())]
    lines = []
    for section in draw(st.permutations(chosen)):
        lines.append(f"[{section}]")
        for key in SANE[section]:
            if draw(st.integers(0, 9)):  # one key in ten goes missing
                lines.append(f"{key} = {draw(value_for(section, key))}")
        if not draw(st.integers(0, 9)):
            lines.append(draw(st.sampled_from(["# note", "=", "x =", "[", "stray = 1"])))
    return "\n".join(lines) + "\n"


@st.composite
def any_item(draw):
    section = draw(st.sampled_from(list(SANE)))
    key = draw(st.sampled_from(list(SANE[section])))
    return f"{section}.{key}={draw(values)}"


# most items set a number, many of them past what float64 arithmetic survives
override_items = st.one_of(st.builds("{}={}".format, st.sampled_from(NUMERIC_KEYS), numbers),
                           any_item())
base = st.one_of(st.sampled_from(sorted(cli.PRESETS)), config_texts())
caps = st.tuples(st.integers(3, 41), st.integers(1, 20), st.integers(1, 5))


def _csv_values_finite(path: Path) -> bool:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return bool(np.isfinite(data).all())


@settings(max_examples=300, deadline=None)
@given(target=base, overrides=st.lists(override_items, max_size=3), caps=caps)
def test_main_exits_with_a_documented_code(target, overrides, caps):
    nx, nt, count = caps
    with tempfile.TemporaryDirectory() as tmp:
        if target not in cli.PRESETS:
            config = Path(tmp) / "fuzz.cfg"
            config.write_text(target, encoding="utf-8")
            target = str(config)
        out = Path(tmp) / "out"
        argv = [target, "--out", str(out), "--format", "csv"]
        # the caps come last, so they win over the config and the fuzzed items
        for item in [*overrides, f"grid.nx={nx}", f"grid.nt={nt}",
                     f"trajectories.count={count}"]:
            argv += ["--override", item]
        console = io.StringIO()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console), \
                np.errstate(all="ignore"):
            status = cli.main(argv)
        assert status in (0, 2, 3, 4), console.getvalue()
        if status == 0:
            for path in out.glob("*.csv"):
                assert _csv_values_finite(path), (path.name, argv)
