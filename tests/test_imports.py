"""scipy is imported by the implicit solver's first step and by nothing
else, and concurrent.futures (about 11 ms to import) by nothing but
scipy: the interference grid's workers are plain threads.  Each case runs in a fresh
interpreter, because the tests themselves import both."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN, REDUCED

SRC = Path(__file__).resolve().parents[1] / "src"

TWO_SLIT_RUN = """
from ballistic.cli import load_scenario, run_scenario
run_scenario(load_scenario("fig4", ["grid.nx=81", "grid.nt=20", "trajectories.count=3"]))
"""
EXPLICIT_RUN = """
from ballistic.cli import load_scenario, run_scenario
run_scenario(load_scenario("fig1", ["solver.scheme=explicit", "grid.nx=281", "grid.t_max=2",
                                  "grid.nt=40", "trajectories.count=3"]))
"""
HELP = """
from ballistic.cli import main
try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
"""


IMPLICIT_RUN = """
import sys
from ballistic.cli import main
argv = ["fig1", "--out", sys.argv[1], "--format", "csv,pgm"]
for item in sys.argv[2:]:
    argv += ["--override", item]
assert main(argv) == 0
"""


WATCHED = ("scipy", "concurrent.futures")


def imported(code: str, *args: str) -> list[str]:
    """Run code in a new interpreter; which WATCHED modules it imported."""
    code += f"\nimport json, sys; print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", ["import ballistic", TWO_SLIT_RUN, EXPLICIT_RUN, HELP],
                         ids=["import", "two_slit_run", "explicit_solve", "help"])
def test_scipy_not_imported(code):
    assert imported(code) == []


def test_implicit_run_imports_scipy_and_writes_golden_digests(tmp_path):
    assert "scipy" in imported(IMPLICIT_RUN, str(tmp_path), *REDUCED)  # which imports the other
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert digests == json.loads(GOLDEN.read_text(encoding="utf-8"))["reduced_sha256"]["fig1"]
