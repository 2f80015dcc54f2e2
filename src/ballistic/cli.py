"""Scenario configuration, figure presets, file output and the command-line
entry point.

Config files use a flat sectioned key = value format:

    # comment (anywhere on a line)
    [grid]
    x_min = -10.0
    nx = 801

Sections: params, grid, slit1, slit2, shifter, solver, trajectories,
output.  Every validation problem is reported with the line it came from,
and all problems are reported at once.  Identical configurations produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Grid, ParameterError, PhysicalParams, ScalarField, SlitSource
from .analytic import gaussian_density
from .interference import DoubleSlitSystem, PhaseShifterSchedule, intensity_grid
from .fdm import NormDriftError, SolveResult, SolverConfig, StabilityError, solve
from .trajectories import TrajectorySet, double_slit_trajectories, single_slit_trajectories

__all__ = [
    "ConfigError",
    "TrajectoryRequest",
    "SolverRequest",
    "Scenario",
    "parse_config",
    "serialize_scenario",
    "load_scenario",
    "run_scenario",
    "RunResult",
    "write_field_csv",
    "write_trajectories_csv",
    "write_norm_trace_csv",
    "write_pgm",
    "write_outputs",
    "PRESETS",
    "main",
]

OUTPUT_NAMES = (
    "density",
    "phase_difference",
    "entangling_current",
    "diffusivity",
    "trajectories",
    "norm_trace",
)

# fields rendered from magnitude plus a sign companion in PGM output
_SIGNED_FIELDS = frozenset({"phase_difference", "entangling_current"})


class ConfigError(ValueError):
    """One or more configuration problems; each entry is (line, message)."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = list(errors)
        super().__init__("\n".join(f"line {ln}: {msg}" for ln, msg in self.errors))


@dataclass(frozen=True)
class TrajectoryRequest:
    count: int = 21
    span: float = 3.0
    dt: float | None = None


@dataclass(frozen=True)
class SolverRequest:
    mode: str = "closed_form"
    scheme: str = "explicit"
    source_index: int = 1
    norm_tolerance: float = 1e-6


@dataclass(frozen=True)
class Scenario:
    """Fully validated description of one run."""

    params: PhysicalParams
    grid: Grid
    slit1: SlitSource
    slit2: SlitSource | None
    shifter: PhaseShifterSchedule | None
    solver: SolverRequest | None
    trajectories: TrajectoryRequest | None
    outputs: tuple[str, ...]
    name: str = "scenario"


# ---------------------------------------------------------------------------
# parsing

def _read_sections(text: str):
    """Split config text into {section: {key: (raw value, line)}}.

    Returns (sections, section_lines, errors); syntax problems are collected
    rather than raised so later stages can add their own.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    section_lines: dict[str, int] = {}
    errors: list[tuple[int, str]] = []
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                errors.append((lineno, "empty section name"))
                current = None
                continue
            if name in sections:
                errors.append((lineno, f"duplicate section [{name}]"))
                current = name
                continue
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if "=" not in line:
            errors.append((lineno, f"expected 'key = value' or '[section]', got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            errors.append((lineno, "missing key before '='"))
            continue
        if current is None:
            errors.append((lineno, f"key {key!r} appears before any [section] header"))
            continue
        if key in sections[current]:
            errors.append((lineno, f"duplicate key {key!r} in section [{current}]"))
            continue
        sections[current][key] = (value, lineno)
    return sections, section_lines, errors


_KNOWN_KEYS = {
    "params": ("hbar", "mass"),
    "grid": ("x_min", "x_max", "nx", "t_max", "nt"),
    "slit1": ("center", "sigma0", "drift"),
    "slit2": ("center", "sigma0", "drift"),
    "shifter": ("total_shift", "t_start", "t_end"),
    "solver": ("mode", "scheme", "source", "norm_tolerance"),
    "trajectories": ("count", "span", "dt"),
    "output": ("select",),
}


class _SectionReader:
    """Pulls typed values out of one raw section, logging errors with the
    line they came from."""

    def __init__(self, name, sections, section_lines, errors):
        self.name = name
        self.data = sections.get(name, {})
        self.present = name in sections
        self.line = section_lines.get(name, 0)
        self.errors = errors

    def _fetch(self, key):
        return self.data.get(key)

    def float_(self, key, default=None, required=False):
        item = self._fetch(key)
        if item is None:
            if required and self.present:
                self.errors.append((self.line, f"[{self.name}] is missing required key {key!r}"))
            return default
        value, line = item
        try:
            return float(value)
        except ValueError:
            self.errors.append((line, f"{key} must be a number, got {value!r}"))
            return default

    def int_(self, key, default=None, required=False):
        item = self._fetch(key)
        if item is None:
            if required and self.present:
                self.errors.append((self.line, f"[{self.name}] is missing required key {key!r}"))
            return default
        value, line = item
        try:
            return int(value)
        except ValueError:
            self.errors.append((line, f"{key} must be an integer, got {value!r}"))
            return default

    def choice(self, key, allowed, default=None):
        item = self._fetch(key)
        if item is None:
            return default
        value, line = item
        if value not in allowed:
            self.errors.append((line, f"{key} must be one of {', '.join(allowed)}, got {value!r}"))
            return default
        return value


def _build_scenario(sections, section_lines, errors, name: str) -> Scenario | None:
    for sec, keys in sections.items():
        if sec not in _KNOWN_KEYS:
            errors.append((section_lines.get(sec, 0), f"unknown section [{sec}]"))
            continue
        for key, (_, line) in keys.items():
            if key not in _KNOWN_KEYS[sec]:
                errors.append((line, f"unknown key {key!r} in section [{sec}]"))

    for required in ("grid", "slit1", "output"):
        if required not in sections:
            errors.append((0, f"missing required section [{required}]"))

    params_r = _SectionReader("params", sections, section_lines, errors)
    grid_r = _SectionReader("grid", sections, section_lines, errors)
    slit1_r = _SectionReader("slit1", sections, section_lines, errors)
    slit2_r = _SectionReader("slit2", sections, section_lines, errors)
    shifter_r = _SectionReader("shifter", sections, section_lines, errors)
    solver_r = _SectionReader("solver", sections, section_lines, errors)
    traj_r = _SectionReader("trajectories", sections, section_lines, errors)
    output_r = _SectionReader("output", sections, section_lines, errors)

    params = None
    try:
        params = PhysicalParams(
            hbar=params_r.float_("hbar", 1.0), mass=params_r.float_("mass", 1.0)
        )
    except (ParameterError, TypeError) as exc:
        errors.append((params_r.line, str(exc)))

    grid = None
    if grid_r.present:
        gvals = dict(
            x_min=grid_r.float_("x_min", required=True),
            x_max=grid_r.float_("x_max", required=True),
            nx=grid_r.int_("nx", required=True),
            t_max=grid_r.float_("t_max", required=True),
            nt=grid_r.int_("nt", required=True),
        )
        if all(v is not None for v in gvals.values()):
            try:
                grid = Grid(**gvals)
            except ParameterError as exc:
                errors.append((grid_r.line, str(exc)))

    def build_slit(reader):
        if not reader.present:
            return None
        vals = dict(
            center=reader.float_("center", required=True),
            sigma0=reader.float_("sigma0", 1.0),
            drift=reader.float_("drift", 0.0),
        )
        if any(v is None for v in vals.values()):
            return None
        try:
            return SlitSource(**vals)
        except ParameterError as exc:
            errors.append((reader.line, str(exc)))
            return None

    slit1 = build_slit(slit1_r)
    slit2 = build_slit(slit2_r)
    if slit1 is not None and slit2 is not None and slit1.center == slit2.center:
        errors.append((slit2_r.line, "slit centers must be distinct"))

    shifter = None
    if shifter_r.present:
        if "slit2" not in sections:
            errors.append((shifter_r.line, "a phase shifter requires two sources ([slit2] missing)"))
        svals = dict(
            total_shift=shifter_r.float_("total_shift", required=True),
            t_start=shifter_r.float_("t_start", required=True),
            t_end=shifter_r.float_("t_end", required=True),
        )
        if all(v is not None for v in svals.values()):
            try:
                shifter = PhaseShifterSchedule(**svals)
            except ParameterError as exc:
                errors.append((shifter_r.line, str(exc)))

    solver = None
    if solver_r.present:
        mode = solver_r.choice("mode", ("closed_form", "local_recursion"), "closed_form")
        scheme = solver_r.choice("scheme", ("explicit", "implicit"), "explicit")
        source_index = solver_r.int_("source", 1)
        norm_tol = solver_r.float_("norm_tolerance", 1e-6)
        if source_index not in (1, 2):
            errors.append((solver_r.line, f"solver source must be 1 or 2, got {source_index}"))
        elif source_index == 2 and "slit2" not in sections:
            errors.append((solver_r.line, "solver source = 2 requires [slit2]"))
        else:
            solver = SolverRequest(
                mode=mode, scheme=scheme, source_index=source_index, norm_tolerance=norm_tol
            )

    trajectories = None
    if traj_r.present:
        tvals = dict(
            count=traj_r.int_("count", 21),
            span=traj_r.float_("span", 3.0),
            dt=traj_r.float_("dt", None),
        )
        if tvals["count"] is not None and tvals["span"] is not None:
            if tvals["count"] < 1:
                errors.append((traj_r.line, f"trajectory count must be >= 1, got {tvals['count']}"))
            elif not 0 < tvals["span"] < math.inf:
                errors.append((traj_r.line,
                               f"trajectory span must be finite and > 0, got {tvals['span']}"))
            elif tvals["dt"] is not None and not tvals["dt"] > 0:
                errors.append((traj_r.line, f"trajectory dt must be > 0, got {tvals['dt']}"))
            else:
                trajectories = TrajectoryRequest(**tvals)

    outputs: tuple[str, ...] = ()
    if output_r.present:
        item = output_r.data.get("select")
        if item is None:
            errors.append((output_r.line, "[output] is missing required key 'select'"))
        else:
            value, line = item
            names = [part.strip() for part in value.split(",") if part.strip()]
            bad = [n for n in names if n not in OUTPUT_NAMES]
            for n in bad:
                errors.append((line, f"unknown output {n!r}; choose from {', '.join(OUTPUT_NAMES)}"))
            if len(set(names)) != len(names):
                errors.append((line, "duplicate entries in output select"))
            if not names:
                errors.append((line, "at least one output must be selected"))
            if not bad and names and len(set(names)) == len(names):
                outputs = tuple(names)
                two_source = {"phase_difference", "entangling_current"}
                for n in outputs:
                    if n in two_source and "slit2" not in sections:
                        errors.append((line, f"output {n!r} requires two sources ([slit2] missing)"))
                    if n in ("diffusivity", "norm_trace") and "solver" not in sections:
                        errors.append((line, f"output {n!r} requires a [solver] section"))

    if errors:
        return None

    scenario = Scenario(
        params=params,
        grid=grid,
        slit1=slit1,
        slit2=slit2,
        shifter=shifter,
        solver=solver,
        trajectories=trajectories,
        outputs=outputs,
        name=name,
    )

    if solver is not None:
        # surface solver preconditions (margin, drift, stability) as config errors
        try:
            _solver_config(scenario)
        except StabilityError as exc:
            errors.append((solver_r.line, str(exc)))
        except ParameterError as exc:
            errors.append((solver_r.line, str(exc)))
        if errors:
            return None
    return scenario


def parse_config(text: str, name: str = "scenario") -> Scenario:
    """Parse config text into a Scenario; raises ConfigError carrying every
    validation problem found, each tagged with its source line."""
    sections, section_lines, errors = _read_sections(text)
    scenario = _build_scenario(sections, section_lines, errors, name)
    if errors or scenario is None:
        raise ConfigError(errors)
    return scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical config text; parse_config(serialize_scenario(s)) == s."""
    lines: list[str] = []

    def put(section: str, items: dict):
        lines.append(f"[{section}]")
        for key, value in items.items():
            if value is None:
                continue
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
        lines.append("")

    put("params", {"hbar": scenario.params.hbar, "mass": scenario.params.mass})
    g = scenario.grid
    put("grid", {"x_min": g.x_min, "x_max": g.x_max, "nx": g.nx, "t_max": g.t_max, "nt": g.nt})
    s1 = scenario.slit1
    put("slit1", {"center": s1.center, "sigma0": s1.sigma0, "drift": s1.drift})
    if scenario.slit2 is not None:
        s2 = scenario.slit2
        put("slit2", {"center": s2.center, "sigma0": s2.sigma0, "drift": s2.drift})
    if scenario.shifter is not None:
        sh = scenario.shifter
        put("shifter", {"total_shift": sh.total_shift, "t_start": sh.t_start, "t_end": sh.t_end})
    if scenario.solver is not None:
        so = scenario.solver
        put("solver", {
            "mode": so.mode, "scheme": so.scheme,
            "source": so.source_index, "norm_tolerance": so.norm_tolerance,
        })
    if scenario.trajectories is not None:
        tr = scenario.trajectories
        put("trajectories", {"count": tr.count, "span": tr.span, "dt": tr.dt})
    put("output", {"select": ", ".join(scenario.outputs)})
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# presets (illustrative geometry in natural units; override freely)

PRESETS: dict[str, str] = {
    "fig1": """\
# one spreading packet: implicit solve, coefficient field, mass trace, paths
[grid]
x_min = -35.0
x_max = 35.0
nx = 1401
t_max = 12.0
nt = 400

[slit1]
center = 0.0
sigma0 = 1.0

[solver]
scheme = implicit

[trajectories]
count = 21
span = 3.0

[output]
select = density, diffusivity, norm_trace, trajectories
""",
    "fig3a": """\
# mirrored equal slits, no drift, no shifter
[grid]
x_min = -10.0
x_max = 10.0
nx = 801
t_max = 12.0
nt = 400

[slit1]
center = -4.0
sigma0 = 1.0

[slit2]
center = 4.0
sigma0 = 1.0

[trajectories]
count = 21
span = 3.0

[output]
select = density, phase_difference, entangling_current, trajectories
""",
    "fig3b": """\
# unequal widths: slit 2 starts twice as narrow as slit 1
[grid]
x_min = -10.0
x_max = 10.0
nx = 801
t_max = 12.0
nt = 400

[slit1]
center = -4.0
sigma0 = 1.0

[slit2]
center = 4.0
sigma0 = 0.5

[trajectories]
count = 21
span = 3.0

[output]
select = density, phase_difference, entangling_current, trajectories
""",
    "fig4": """\
# equal slits with a 3 pi shifter ramped over t in [2, 4]
[grid]
x_min = -10.0
x_max = 10.0
nx = 801
t_max = 12.0
nt = 400

[slit1]
center = -4.0
sigma0 = 1.0

[slit2]
center = 4.0
sigma0 = 1.0

[shifter]
total_shift = 9.42477796076938
t_start = 2.0
t_end = 4.0

[trajectories]
count = 21
span = 3.0

[output]
select = density, phase_difference, entangling_current, trajectories
""",
    "fig5": """\
# equal slits with a 5 pi shifter ramped over t in [5, 7]
[grid]
x_min = -10.0
x_max = 10.0
nx = 801
t_max = 12.0
nt = 400

[slit1]
center = -4.0
sigma0 = 1.0

[slit2]
center = 4.0
sigma0 = 1.0

[shifter]
total_shift = 15.707963267948966
t_start = 5.0
t_end = 7.0

[trajectories]
count = 21
span = 3.0

[output]
select = density, phase_difference, entangling_current, trajectories
""",
}


def load_scenario(target: str, overrides: list[str] | None = None) -> Scenario:
    """Resolve a preset name or config file path, apply overrides, parse."""
    if target in PRESETS:
        text = PRESETS[target]
        name = target
    else:
        path = Path(target)
        text = path.read_text(encoding="utf-8")
        name = path.stem
    sections, section_lines, errors = _read_sections(text)
    for item in overrides or []:
        head, sep, value = item.partition("=")
        if not sep or "." not in head:
            errors.append((0, f"override must look like section.key=value, got {item!r}"))
            continue
        sec, _, key = head.strip().partition(".")
        sec, key, value = sec.strip(), key.strip(), value.strip()
        sections.setdefault(sec, {})
        section_lines.setdefault(sec, 0)
        sections[sec][key] = (value, 0)
    scenario = _build_scenario(sections, section_lines, errors, name)
    if errors or scenario is None:
        raise ConfigError(errors)
    return scenario


# ---------------------------------------------------------------------------
# running

@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    fields: dict[str, ScalarField]
    trajectories: TrajectorySet | None
    norm_trace: np.ndarray | None


def _solver_config(scenario: Scenario) -> SolverConfig:
    req = scenario.solver
    source = scenario.slit1 if req.source_index == 1 else scenario.slit2
    return SolverConfig(
        grid=scenario.grid,
        source=source,
        params=scenario.params,
        mode=req.mode,
        scheme=req.scheme,
        norm_monitor_tolerance=req.norm_tolerance,
    )


def _system(scenario: Scenario) -> DoubleSlitSystem:
    return DoubleSlitSystem(
        slit1=scenario.slit1,
        slit2=scenario.slit2,
        params=scenario.params,
        shifter=scenario.shifter,
    )


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute the analytic, solver and trajectory pipelines a scenario
    selects.  Single-source density comes from the solver when one is
    configured and from the closed form otherwise; two-source scenarios
    always evaluate the interference fields in closed form."""
    grid = scenario.grid
    selected = set(scenario.outputs)
    fields: dict[str, ScalarField] = {}
    norm_trace = None

    solver_result: SolveResult | None = None
    needs_solver = bool(selected & {"diffusivity", "norm_trace"}) or (
        "density" in selected and scenario.slit2 is None and scenario.solver is not None
    )
    if needs_solver and scenario.solver is not None:
        solver_result = solve(_solver_config(scenario))

    if scenario.slit2 is not None:
        if selected & {"density", "phase_difference", "entangling_current"}:
            grids = intensity_grid(_system(scenario), grid)
            if "density" in selected:
                fields["density"] = grids.density
            if "phase_difference" in selected:
                fields["phase_difference"] = grids.phase_difference
            if "entangling_current" in selected:
                fields["entangling_current"] = grids.entangling_current
    elif "density" in selected:
        if solver_result is not None:
            fields["density"] = solver_result.density
        else:
            x = grid.x()[None, :]
            t = grid.times()[:, None]
            fields["density"] = ScalarField(grid, gaussian_density(scenario.slit1, scenario.params, x, t))

    if "diffusivity" in selected:
        fields["diffusivity"] = solver_result.diffusivity
    if "norm_trace" in selected:
        norm_trace = solver_result.norm_trace

    trajectories = None
    if "trajectories" in selected:
        req = scenario.trajectories or TrajectoryRequest()
        dt = req.dt if req.dt is not None else grid.dt / 4.0
        if scenario.slit2 is not None:
            trajectories = double_slit_trajectories(
                _system(scenario), req.count, req.span, grid.t_max, dt
            )
        else:
            trajectories = single_slit_trajectories(
                scenario.slit1, scenario.params, req.count, req.span, grid.t_max, dt
            )

    return RunResult(
        scenario=scenario, fields=fields, trajectories=trajectories, norm_trace=norm_trace
    )


# ---------------------------------------------------------------------------
# serialization

def write_field_csv(field: ScalarField, path) -> None:
    """Rows are t,x,value in time-major order, 17 significant digits."""
    grid = field.grid
    t = np.repeat(grid.times(), grid.nx)
    x = np.tile(grid.x(), grid.nt + 1)
    table = np.column_stack([t, x, field.values.ravel()])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header="t,x,value", comments="")


def write_trajectories_csv(trajectories: TrajectorySet, path) -> None:
    """Rows are seed_id,t,x grouped by seed."""
    n_seeds = len(trajectories.seeds)
    n_times = trajectories.times.size
    seed_ids = np.repeat(np.arange(n_seeds), n_times)
    t = np.tile(trajectories.times, n_seeds)
    x = trajectories.positions.T.ravel()
    table = np.column_stack([seed_ids, t, x])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, table, fmt=["%d", "%.17g", "%.17g"], delimiter=",",
                   header="seed_id,t,x", comments="")


def write_norm_trace_csv(times: np.ndarray, masses: np.ndarray, path) -> None:
    table = np.column_stack([times, masses])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header="t,mass", comments="")


def _pgm_bytes(magnitudes: np.ndarray, gamma: float, comment: str) -> bytes:
    rows, cols = magnitudes.shape
    v_max = float(magnitudes.max())
    if v_max > 0:
        pixels = np.rint(255.0 * (magnitudes / v_max) ** gamma).astype(np.uint8)
    else:
        pixels = np.zeros(magnitudes.shape, dtype=np.uint8)
    header = f"P5\n# {comment} max={v_max:.17g}\n{cols} {rows}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def write_pgm(field: ScalarField, path, gamma: float = 1.0,
              comment: str = "", signed: bool = False) -> None:
    """Binary 8-bit PGM; row 0 is t = 0.  Pixel = round(255 (v/v_max)^gamma).

    signed=True renders magnitudes and writes a second *_sign.pgm companion
    encoding sign as 0 (negative), 128 (zero) or 255 (positive).
    """
    if not gamma > 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    path = Path(path)
    values = field.values
    if signed:
        Path(path).write_bytes(_pgm_bytes(np.abs(values), gamma, comment))
        rows, cols = values.shape
        sign_pixels = np.where(values > 0, 255, np.where(values < 0, 0, 128)).astype(np.uint8)
        header = f"P5\n# {comment} sign\n{cols} {rows}\n255\n".encode("ascii")
        sign_path = path.with_name(path.stem + "_sign" + path.suffix)
        sign_path.write_bytes(header + sign_pixels.tobytes())
    else:
        path.write_bytes(_pgm_bytes(np.clip(values, 0.0, None), gamma, comment))


def write_outputs(result: RunResult, out_dir, formats=("csv",), gamma: float = 1.0) -> list[Path]:
    """Write every selected output under out_dir; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = tuple(formats)
    unknown = set(formats) - {"csv", "pgm"}
    if unknown:
        raise ParameterError(f"unknown output format(s): {', '.join(sorted(unknown))}")
    scenario = result.scenario
    written: list[Path] = []

    config_path = out_dir / "scenario.txt"
    config_path.write_text(serialize_scenario(scenario), encoding="utf-8", newline="\n")
    written.append(config_path)

    for name in scenario.outputs:
        if name == "trajectories":
            path = out_dir / "trajectories.csv"
            write_trajectories_csv(result.trajectories, path)
            written.append(path)
            continue
        if name == "norm_trace":
            path = out_dir / "norm_trace.csv"
            write_norm_trace_csv(scenario.grid.times(), result.norm_trace, path)
            written.append(path)
            continue
        field = result.fields[name]
        if "csv" in formats:
            path = out_dir / f"{name}.csv"
            write_field_csv(field, path)
            written.append(path)
        if "pgm" in formats:
            path = out_dir / f"{name}.pgm"
            signed = name in _SIGNED_FIELDS
            write_pgm(field, path, gamma=gamma, comment=f"{scenario.name} {name}", signed=signed)
            written.append(path)
            if signed:
                written.append(path.with_name(path.stem + "_sign" + path.suffix))
    return written


# ---------------------------------------------------------------------------
# entry point

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a packet-dispersion or two-slit interference scenario "
                    "from a preset name or a config file.",
    )
    parser.add_argument("target",
                        help="preset name (%s) or path to a config file" % ", ".join(sorted(PRESETS)))
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--format", default="csv",
                        help="comma list of output formats: csv,pgm (default: csv)")
    parser.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override one config value; repeatable")
    parser.add_argument("--gamma", type=float, default=1.0,
                        help="PGM intensity exponent (default: 1.0)")
    args = parser.parse_args(argv)

    formats = tuple(part.strip() for part in args.format.split(",") if part.strip())
    unknown = set(formats) - {"csv", "pgm"}
    if unknown or not formats:
        print(f"unsupported --format value {args.format!r}; use csv, pgm or csv,pgm",
              file=sys.stderr)
        return 2

    try:
        scenario = load_scenario(args.target, overrides=args.override)
    except ConfigError as exc:
        print("config error:", file=sys.stderr)
        for line, msg in exc.errors:
            where = f"line {line}" if line else "config"
            print(f"  {where}: {msg}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config {args.target!r}: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_scenario(scenario)
    except StabilityError as exc:
        print(f"stability failure: {exc}", file=sys.stderr)
        print(f"  {exc.report.describe()}", file=sys.stderr)
        return 3
    except NormDriftError as exc:
        print(f"norm drift failure: {exc}", file=sys.stderr)
        return 4

    for path in write_outputs(result, args.out, formats=formats, gamma=args.gamma):
        print(f"wrote {path}")
    return 0
