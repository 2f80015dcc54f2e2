"""Spans and counters recorded around the package's layer functions.

The tracer replaces module attributes (the bindings callers actually look
up at call time) with timing wrappers and puts the originals back on
`close`.  Each span has a name, start, end, parent span and scenario id;
spans stay in memory and are written out once, at the end of the run.  A
layer's self time is its duration minus the time its direct child spans
took.  `sigma_at` is called tens of thousands of times per scenario, so
it is timed and counted like any span but not stored one by one.
"""

from __future__ import annotations

import csv
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import ballistic.analytic
import ballistic.cli
import ballistic.fdm
import ballistic.interference
import ballistic.trajectories

SCENARIO = "scenario"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, scenario id)
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_mass_drift = 0.0
        self.scenario_id = 0
        self._stack: list[list] = []  # [span id, child time] per open span
        self._next_id = 1
        self._restore: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float, keep: bool) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]
        self.calls[name] += 1
        if keep:
            self.spans.append((frame[0], name, start, end,
                               parent[0] if parent else 0, self.scenario_id))

    def _hook_time(self, seconds: float) -> None:
        # counter hooks run inside the parent span; book them as a child
        # so they do not inflate the parent's self time
        if self._stack:
            self._stack[-1][1] += seconds

    def scenario(self, call, *args):
        """Run call(*args) as the root span of a new scenario."""
        self.scenario_id += 1
        frame = self._enter()
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self._exit(frame, SCENARIO, start, time.perf_counter(), keep=True)

    def wrap(self, module, attr: str, name: str, keep: bool = True, count=None) -> None:
        """Replace module.attr by a timed wrapper; count(tracer, args,
        kwargs, result) may add counters after each call."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            frame = self._enter()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(frame, name, start, time.perf_counter(), keep)
            if count is not None:
                hook_start = time.perf_counter()
                count(self, args, kwargs, result)
                self._hook_time(time.perf_counter() - hook_start)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def close(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "scenario"))
            out.writerows(self.spans)
            # unstored spans: one summary row per name
            out.writerow(())
            out.writerow(("name", "calls", "total_s", "self_s"))
            for name in sorted(self.calls):
                out.writerow((name, self.calls[name], self.total[name], self.self_time[name]))


# ---------------------------------------------------------------------------
# counters taken after a wrapped call returns

def _file_bytes(tracer, key, path, signed=False):
    path = Path(path)
    size = path.stat().st_size
    if signed:
        size += path.with_name(path.stem + "_sign" + path.suffix).stat().st_size
    tracer.counts[key] += size


def _count_solve(tracer, args, kwargs, result):
    drift = float(np.abs(result.norm_trace - 1.0).max())
    tracer.max_mass_drift = max(tracer.max_mass_drift, drift)
    tracer.counts["fdm.flagged_cells"] += result.flagged_cells


def _count_step(tracer, args, kwargs, result):
    tracer.counts["fdm.cell_steps"] += result.size


def _count_grid(tracer, args, kwargs, result):
    grid = args[1]
    tracer.counts["interference.intensity_grid_cells"] += (grid.nt + 1) * grid.nx


def _count_velocity(tracer, args, kwargs, result):
    tracer.counts["interference.field_velocity_points"] += np.size(args[1])
    tracer.counts["interference.undefined_velocity_samples"] += int(
        np.count_nonzero(np.isnan(result)))


def _count_integrate(tracer, args, kwargs, result):
    times, positions, exited = result
    tracer.counts["trajectories.rk4_steps"] += times.size - 1
    tracer.counts["trajectories.seed_steps"] += (times.size - 1) * positions.shape[1]
    tracer.counts["trajectories.exited"] += int(np.count_nonzero(exited))


def install(tracer: Tracer) -> None:
    """Wrap every layer binding the `simulate` path goes through."""
    cli, traj, fdm = ballistic.cli, ballistic.trajectories, ballistic.fdm
    for attr in ("load_scenario", "run_scenario", "write_outputs"):
        tracer.wrap(cli, attr, f"cli.{attr}")
    tracer.wrap(cli, "solve", "fdm.solve", count=_count_solve)
    tracer.wrap(cli, "intensity_grid", "interference.intensity_grid", count=_count_grid)
    tracer.wrap(cli, "double_slit_trajectories", "trajectories.double_slit_trajectories")
    tracer.wrap(cli, "single_slit_trajectories", "trajectories.single_slit_trajectories")
    tracer.wrap(cli, "write_field_csv", "cli.write_field_csv",
                count=lambda tr, a, k, r: _file_bytes(tr, "cli.field_csv_bytes", a[1]))
    tracer.wrap(cli, "write_trajectories_csv", "cli.write_trajectories_csv",
                count=lambda tr, a, k, r: _file_bytes(tr, "cli.trajectories_csv_bytes", a[1]))
    tracer.wrap(cli, "write_norm_trace_csv", "cli.write_norm_trace_csv")
    tracer.wrap(cli, "write_pgm", "cli.write_pgm",
                count=lambda tr, a, k, r: _file_bytes(tr, "cli.pgm_bytes", a[1],
                                                      k.get("signed", False)))
    tracer.wrap(traj, "integrate", "trajectories.integrate", count=_count_integrate)
    tracer.wrap(traj, "field_velocity", "interference.field_velocity", count=_count_velocity)
    tracer.wrap(traj, "total_velocity", "analytic.total_velocity")
    tracer.wrap(fdm, "explicit_step", "fdm.explicit_step", count=_count_step)
    tracer.wrap(fdm, "implicit_step", "fdm.implicit_step", count=_count_step)
    tracer.wrap(ballistic.analytic, "sigma_at", "analytic.sigma_at", keep=False)
    tracer.wrap(ballistic.interference, "sigma_at", "analytic.sigma_at", keep=False)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures, as means per traced scenario unless named a rate,
    ratio or maximum."""
    n = max(tracer.calls[SCENARIO], 1)
    total, own, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    step_s = total["fdm.explicit_step"] + total["fdm.implicit_step"]
    scenario_s = total[SCENARIO]
    return {
        "cli.load_scenario_s": (total["cli.load_scenario"] / n, "s"),
        "cli.run_scenario_self_s": (own["cli.run_scenario"] / n, "s"),
        "cli.write_outputs_self_s": (own["cli.write_outputs"] / n, "s"),
        "cli.write_field_csv_s": (total["cli.write_field_csv"] / n, "s"),
        "cli.field_csv_bytes": (counts["cli.field_csv_bytes"] / n, "bytes"),
        "cli.field_csv_mb_per_s": (
            rate(counts["cli.field_csv_bytes"] / 1e6, total["cli.write_field_csv"]), "MB/s"),
        "cli.write_trajectories_csv_s": (total["cli.write_trajectories_csv"] / n, "s"),
        "cli.trajectories_csv_bytes": (counts["cli.trajectories_csv_bytes"] / n, "bytes"),
        "cli.write_pgm_s": (total["cli.write_pgm"] / n, "s"),
        "cli.pgm_bytes": (counts["cli.pgm_bytes"] / n, "bytes"),
        "cli.write_norm_trace_csv_s": (total["cli.write_norm_trace_csv"] / n, "s"),
        "interference.intensity_grid_s": (total["interference.intensity_grid"] / n, "s"),
        "interference.intensity_grid_cells": (
            counts["interference.intensity_grid_cells"] / n, "count"),
        "interference.cells_per_s": (
            rate(counts["interference.intensity_grid_cells"],
                 total["interference.intensity_grid"]), "1/s"),
        "interference.field_velocity_s": (total["interference.field_velocity"] / n, "s"),
        "interference.field_velocity_calls": (calls["interference.field_velocity"] / n, "count"),
        "interference.field_velocity_points": (
            counts["interference.field_velocity_points"] / n, "count"),
        "interference.undefined_velocity_samples": (
            counts["interference.undefined_velocity_samples"] / n, "count"),
        "analytic.sigma_at_calls": (calls["analytic.sigma_at"] / n, "count"),
        "analytic.sigma_at_s": (total["analytic.sigma_at"] / n, "s"),
        "analytic.total_velocity_calls": (calls["analytic.total_velocity"] / n, "count"),
        "trajectories.integrate_s": (total["trajectories.integrate"] / n, "s"),
        "trajectories.integrate_self_s": (own["trajectories.integrate"] / n, "s"),
        "trajectories.rk4_steps": (counts["trajectories.rk4_steps"] / n, "count"),
        "trajectories.seed_steps_per_s": (
            rate(counts["trajectories.seed_steps"], total["trajectories.integrate"]), "1/s"),
        "trajectories.exited": (counts["trajectories.exited"] / n, "count"),
        "fdm.solve_s": (total["fdm.solve"] / n, "s"),
        "fdm.step_s": (step_s / n, "s"),
        "fdm.solve_self_s": (own["fdm.solve"] / n, "s"),
        "fdm.steps.explicit": (calls["fdm.explicit_step"] / n, "count"),
        "fdm.steps.implicit": (calls["fdm.implicit_step"] / n, "count"),
        "fdm.cell_steps_per_s": (rate(counts["fdm.cell_steps"], step_s), "1/s"),
        "fdm.max_mass_drift": (tracer.max_mass_drift, "ratio"),
        "fdm.flagged_cells": (counts["fdm.flagged_cells"] / n, "count"),
        "trace.layer_coverage": (1.0 - own[SCENARIO] / scenario_s if scenario_s else 0.0, "ratio"),
    }


def self_time_table(tracer: Tracer) -> list[tuple[str, float]]:
    """(span name, self seconds) for every layer, largest first."""
    return sorted(((name, tracer.self_time[name]) for name in tracer.calls),
                  key=lambda item: -item[1])
