"""Self-tests for the benchmark harness.

    python3 bench/selftest.py

Checks that a seed always yields the same argv, that every generated input
is accepted by the config layer, that a smoke run of all four workloads at
reduced size finishes cleanly in both modes, and that a corrupted output
file is counted as a wrong output.
"""

from __future__ import annotations

import itertools
import os
import shutil
import sys
import time
import unittest
from pathlib import Path

import run
from workloads import WORKLOADS, cases, explicit_max_dt

os.environ["OPENBLAS_NUM_THREADS"] = run.BLAS_THREADS
sys.path.insert(0, str(run.SRC))


def overrides(case) -> list[str]:
    return [case.argv[i + 1] for i, arg in enumerate(case.argv) if arg == "--override"]


class ArgvTest(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for workload in WORKLOADS:
            for tiny in (False, True):
                first = [c.argv for c in itertools.islice(cases(workload, 7, tiny), 24)]
                again = [c.argv for c in itertools.islice(cases(workload, 7, tiny), 24)]
                self.assertEqual(first, again, workload)

    def test_seeds_differ(self):
        for workload in ("shifter_sweep", "solver_ladder", "fringe_field"):
            a = [c.argv for c in itertools.islice(cases(workload, 1), 8)]
            b = [c.argv for c in itertools.islice(cases(workload, 2), 8)]
            self.assertNotEqual(a, b, workload)

    def test_generated_inputs_are_valid(self):
        from ballistic.cli import load_scenario
        from ballistic.core import check_stability

        for workload, seed in itertools.product(WORKLOADS, range(5)):
            for case in itertools.islice(cases(workload, seed), 16):
                scenario = load_scenario(case.argv[0], overrides(case))  # raises if invalid
                if scenario.solver is not None and scenario.solver.scheme == "explicit":
                    grid, slit = scenario.grid, scenario.slit1
                    self.assertTrue(check_stability(grid, slit, scenario.params).ok)
                    self.assertLessEqual(grid.dt, explicit_max_dt(slit.sigma0, grid.t_max, grid.dx))


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_clean_at_small_size(self):
        start = time.perf_counter()
        for workload, trace in itertools.product(WORKLOADS, (False, True)):
            record = run.bench(workload, seed=1, seconds=0.2, trace=trace, tiny=True)
            self.assertEqual(record["failed"], 0, (workload, trace))
            self.assertEqual(record["wrong_outputs"], 0, (workload, trace))
            self.assertGreater(record["output_checks"], 0, (workload, trace))
            names = set(record["metrics"])
            if trace:
                self.assertIn("trace.overhead_ratio", names)
                self.assertGreater(record["metrics"]["trace.layer_coverage"]["value"], 0.5)
            else:
                self.assertIn("scenario_s.p50", names)
        self.assertLess(time.perf_counter() - start, 60.0)


class CorruptionTest(unittest.TestCase):
    def _wrong_after(self, workload: str, corrupt) -> int:
        import ballistic.cli as cli
        import numpy as np
        from checks import check_case, load_references

        case = next(cases(workload, 3, tiny=True))
        out = run.RUNS / "selftest" / workload
        try:
            sample = run.run_case(cli, case, out)
            self.assertEqual(sample.status, 0)
            refs = load_references()
            clean = check_case(case, out, refs, np.random.default_rng(0))
            self.assertEqual(clean.failures, [])
            corrupt(out)
            return len(check_case(case, out, refs, np.random.default_rng(0)).failures)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def test_corrupted_csv_value_is_wrong(self):
        def nudge_csv(out: Path, name: str, row: int):
            path = out / name
            lines = path.read_text().splitlines(keepends=True)
            fields = lines[row].rstrip("\n").split(",")
            fields[-1] = repr(float(fields[-1]) * (1 + 1e-6) + 1e-9)
            lines[row] = ",".join(fields) + "\n"
            path.write_text("".join(lines))

        # row 1 is sampled for presets and is the first seed position for
        # trajectories; the norm trace of a solve is checked in full
        self.assertGreater(self._wrong_after(
            "presets", lambda out: nudge_csv(out, "density.csv", 1)), 0)
        self.assertGreater(self._wrong_after(
            "shifter_sweep", lambda out: nudge_csv(out, "trajectories.csv", 1)), 0)

    def test_corrupted_render_is_wrong(self):
        def darken(out: Path, name: str):
            path = out / name
            data = bytearray(path.read_bytes())
            body = len(data) - len(data) // 2
            for i in range(body, len(data)):
                data[i] = data[i] // 2
            path.write_bytes(bytes(data))

        self.assertGreater(self._wrong_after(
            "fringe_field", lambda out: darken(out, "density.pgm")), 0)

    def test_mass_beyond_tolerance_is_wrong(self):
        def leak(out: Path):
            path = out / "norm_trace.csv"
            lines = path.read_text().splitlines(keepends=True)
            t, _ = lines[-1].split(",")
            lines[-1] = f"{t},0.99\n"
            path.write_text("".join(lines))

        self.assertGreater(self._wrong_after("solver_ladder", leak), 0)

    def test_missing_file_is_wrong(self):
        self.assertGreater(self._wrong_after(
            "fringe_field", lambda out: (out / "phase_difference_sign.pgm").unlink()), 0)


if __name__ == "__main__":
    unittest.main()
