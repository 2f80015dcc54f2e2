"""The study scripts run end to end: each imports public names, so a
renamed or deleted one would otherwise break them unseen."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["convergence_study", "recursion_comparison"])
def test_study_script_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    assert capsys.readouterr().out
