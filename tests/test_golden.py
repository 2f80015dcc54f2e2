"""Golden outputs: the exact scenario.txt of every preset, the sha256 of
every file each preset writes at a reduced grid and at full size, and the
exact error list for invalid fig4 overrides.

The digests in golden.json pin the bytes the CLI writes, so a refactor of
the config or output layers is proved against recorded values rather than
against a second run of itself.  Regenerate them only for an intended
output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from ballistic.cli import PRESETS, ConfigError, load_scenario, main, serialize_scenario

GOLDEN = Path(__file__).with_name("golden.json")

REDUCED = ("grid.nx=141", "grid.nt=80", "trajectories.count=5")

INVALID_FIG4_OVERRIDES = (
    ("grid.nx=lots",),
    ("slit1.sigma0=wide", "params.mass=-1"),
    ("slit1.center=nan", "shifter.t_end=inf"),
    ("grid.bogus=1", "extra.key=1"),
    ("grid.nx",),
    ("solver.scheme=magic", "solver.mode=other"),
    ("solver.source=3",),
    ("output.select=density, bogus, density",),
    ("output.select=",),
    ("shifter.t_start=5", "grid.nt=0", "trajectories.count=0"),
    ("slit2.center=-4.0", "trajectories.dt=-1"),
    ("grid.x_min=abc", "trajectories.span=0", "params.hbar=x"),
)


def output_digests(name: str, out_dir: Path, overrides=()) -> dict[str, str]:
    argv = [name, "--out", str(out_dir), "--format", "csv,pgm"]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def config_errors(overrides) -> list[list]:
    with pytest.raises(ConfigError) as err:
        load_scenario("fig4", list(overrides))
    return [[line, msg] for line, msg in err.value.errors]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_scenario_text(golden, name):
    assert serialize_scenario(load_scenario(name)) == golden["scenario_txt"][name]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_output_digests(golden, tmp_path, capsys, name):
    assert output_digests(name, tmp_path, REDUCED) == golden["reduced_sha256"][name]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_full_digests(golden, tmp_path, capsys, name):
    # the README's own runs: every float the CSV writers format at full size
    assert output_digests(name, tmp_path) == golden["full_sha256"][name]


@pytest.mark.parametrize("overrides", INVALID_FIG4_OVERRIDES, ids=" ".join)
def test_fig4_error_list(golden, overrides):
    assert config_errors(overrides) == golden["fig4_errors"][" ".join(overrides)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "scenario_txt": {n: serialize_scenario(load_scenario(n)) for n in sorted(PRESETS)},
            "reduced_sha256": {n: output_digests(n, Path(tmp) / n, REDUCED) for n in sorted(PRESETS)},
            "full_sha256": {n: output_digests(n, Path(tmp) / "full" / n) for n in sorted(PRESETS)},
            "fig4_errors": {" ".join(o): config_errors(o) for o in INVALID_FIG4_OVERRIDES},
        }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
