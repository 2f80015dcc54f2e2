"""The study scripts run end to end: each imports public names, so a
renamed or deleted one would otherwise break them unseen."""

import importlib.util
from pathlib import Path

from ballistic.cli import PRESETS

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("name", ["convergence_study", "recursion_comparison"])
def test_study_script_runs(name, capsys):
    assert load(name).main() == 0
    assert capsys.readouterr().out


def test_render_figures_writes_every_preset(tmp_path, capsys):
    assert load("render_figures").main(["--out", str(tmp_path), "--format", "pgm"]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(PRESETS)
    for name in PRESETS:
        assert (tmp_path / name / "scenario.txt").is_file()
    assert capsys.readouterr().out
