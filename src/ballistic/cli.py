"""Scenario configuration, figure presets, file output and the command-line
entry point.

Config files use a flat sectioned key = value format:

    # comment (anywhere on a line)
    [grid]
    x_min = -10.0
    nx = 801

`_SCHEMA` is the single statement of that format: every section, the value
object it builds, and each key's type (or allowed values) and default.  It
drives unknown-name detection, typed reads, construction and
`serialize_scenario`.  Every validation problem is reported with the line it
came from (0 for overrides and missing sections), and all problems are
reported at once, in line order.  Identical configurations produce
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
from .fdm import MODES, SCHEMES, NormDriftError, SolverConfig, StabilityError, solve
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

# Every output name, in the order the unknown-output message lists them,
# with the config section it requires (None for none) and its kind: a
# "field" is written as csv and/or pgm, a "signed" field's pgm gets a
# *_sign.pgm companion, and a "table" is always csv.
OUTPUTS = {
    "density": (None, "field"),
    "phase_difference": ("slit2", "signed"),
    "entangling_current": ("slit2", "signed"),
    "diffusivity": ("solver", "field"),
    "trajectories": (None, "table"),
    "norm_trace": ("solver", "table"),
}

# most float64 values one grid field or trajectory table may hold (400 MB);
# a larger plan is a config error rather than an allocation attempt
_MAX_VALUES = 50_000_000


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

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ParameterError(f"trajectory count must be >= 1, got {self.count}")
        if not 0 < self.span < math.inf:
            raise ParameterError(f"trajectory span must be finite and > 0, got {self.span}")
        if self.dt is not None and not math.isfinite(self.dt):
            raise ParameterError(f"trajectory dt must be finite, got {self.dt}")
        if self.dt is not None and not self.dt > 0:
            raise ParameterError(f"trajectory dt must be > 0, got {self.dt}")


@dataclass(frozen=True)
class SolverRequest:
    mode: str = "closed_form"
    scheme: str = "explicit"
    source: int = 1
    norm_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.source not in (1, 2):
            raise ParameterError(f"solver source must be 1 or 2, got {self.source}")


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
            current = line[1:-1].strip() or None
            if current is None:
                errors.append((lineno, "empty section name"))
            elif current in sections:
                errors.append((lineno, f"duplicate section [{current}]"))
            else:
                sections[current], section_lines[current] = {}, lineno
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


def _split_select(select: str) -> list[str]:
    return [part.strip() for part in select.split(",") if part.strip()]


_REQUIRED = object()  # default of a key its section cannot omit
_SLIT_KEYS = {"center": (float, _REQUIRED), "sigma0": (float, 1.0), "drift": (float, 0.0)}

# The config format.  Each section maps to the builder of its value object,
# which is the Scenario field of the same name, and to its keys; each key
# maps to its type or its allowed values, and to its default.  [grid],
# [slit1] and [output] must be present, [params] builds from its defaults
# when absent, and any other absent section leaves its field None.
_SCHEMA = {
    "params": (PhysicalParams, {"hbar": (float, 1.0), "mass": (float, 1.0)}),
    "grid": (Grid, {"x_min": (float, _REQUIRED), "x_max": (float, _REQUIRED),
                    "nx": (int, _REQUIRED), "t_max": (float, _REQUIRED),
                    "nt": (int, _REQUIRED)}),
    "slit1": (SlitSource, _SLIT_KEYS),
    "slit2": (SlitSource, _SLIT_KEYS),
    "shifter": (PhaseShifterSchedule, {"total_shift": (float, _REQUIRED),
                                       "t_start": (float, _REQUIRED),
                                       "t_end": (float, _REQUIRED)}),
    "solver": (SolverRequest, {"mode": (MODES, "closed_form"), "scheme": (SCHEMES, "explicit"),
                               "source": (int, 1), "norm_tolerance": (float, 1e-6)}),
    "trajectories": (TrajectoryRequest, {"count": (int, 21), "span": (float, 3.0),
                                         "dt": (float, None)}),
    "output": (_split_select, {"select": (str, _REQUIRED)}),
}
_REQUIRED_SECTIONS = ("grid", "slit1", "output")


def _typed(sec: str, key: str, data: dict, line: int, errors: list):
    """The value of one key as its schema type; the schema default when
    the key is absent or malformed, logging why."""
    kind, default = _SCHEMA[sec][1][key]
    if key not in data:
        if default is _REQUIRED:
            errors.append((line, f"[{sec}] is missing required key {key!r}"))
        return default
    raw, key_line = data[key]
    if isinstance(kind, tuple):
        if raw in kind:
            return raw
        wanted = "one of " + ", ".join(kind)
    else:
        try:
            return kind(raw)
        except ValueError:
            wanted = "a number" if kind is float else "an integer"
    errors.append((key_line, f"{key} must be {wanted}, got {raw!r}"))
    return default


def parse_config(text: str, name: str = "scenario", overrides=()) -> Scenario:
    """Parse config text, with `section.key=value` overrides applied on
    top, into a Scenario; raises ConfigError carrying every problem found,
    each tagged with its source line."""
    sections, section_lines, errors = _read_sections(text)
    for item in overrides:
        head, sep, value = item.partition("=")
        sec, dot, key = (part.strip() for part in head.partition("."))
        if not sep or not dot:
            errors.append((0, f"override must look like section.key=value, got {item!r}"))
            continue
        sections.setdefault(sec, {})[key] = (value.strip(), 0)
        section_lines.setdefault(sec, 0)

    for sec, data in sections.items():
        if sec not in _SCHEMA:
            errors.append((section_lines[sec], f"unknown section [{sec}]"))
            continue
        errors.extend((line, f"unknown key {key!r} in section [{sec}]")
                      for key, (_, line) in data.items() if key not in _SCHEMA[sec][1])
    errors.extend((0, f"missing required section [{sec}]")
                  for sec in _REQUIRED_SECTIONS if sec not in sections)

    built = {}
    for sec, (build, keys) in _SCHEMA.items():
        built[sec] = None
        if sec not in sections and sec != "params":
            continue
        line = section_lines.get(sec, 0)
        values = {key: _typed(sec, key, sections.get(sec, {}), line, errors) for key in keys}
        if any(value is _REQUIRED for value in values.values()):
            continue
        try:
            built[sec] = build(**values)
        except ParameterError as exc:
            errors.append((line, str(exc)))

    # rules that span sections
    if built["slit1"] and built["slit2"] and built["slit1"].center == built["slit2"].center:
        errors.append((section_lines["slit2"], "slit centers must be distinct"))
    if "shifter" in sections and "slit2" not in sections:
        errors.append((section_lines["shifter"],
                       "a phase shifter requires two sources ([slit2] missing)"))
    if built["solver"] and built["solver"].source == 2 and "slit2" not in sections:
        errors.append((section_lines["solver"], "solver source = 2 requires [slit2]"))
    request, grid = built["trajectories"], built["grid"]
    if request and grid and request.dt is not None and not request.dt < grid.t_max:
        errors.append((section_lines["trajectories"],
                       f"trajectory dt must be < grid t_max = {grid.t_max}, got {request.dt}"))
    names, outputs = built.pop("output"), ()
    if names is not None:
        line = sections["output"]["select"][1]
        bad = [n for n in names if n not in OUTPUTS]
        for n in bad:
            errors.append((line, f"unknown output {n!r}; choose from {', '.join(OUTPUTS)}"))
        if len(set(names)) != len(names):
            errors.append((line, "duplicate entries in output select"))
        if not names:
            errors.append((line, "at least one output must be selected"))
        if not bad and names and len(set(names)) == len(names):
            outputs = tuple(names)
        for n in outputs:
            needed = OUTPUTS[n][0]
            if needed is not None and needed not in sections:
                errors.append((line, f"output {n!r} requires " + (
                    "two sources ([slit2] missing)" if needed == "slit2" else "a [solver] section")))
    if errors:
        raise ConfigError(sorted(errors, key=lambda error: error[0]))

    scenario = Scenario(**built, outputs=outputs, name=name)
    errors = _plan_errors(scenario, section_lines)
    if errors:
        raise ConfigError(errors)
    return scenario


def _plan_errors(scenario: Scenario, section_lines: dict[str, int]) -> list[tuple[int, str]]:
    """Problems only the whole scenario shows: the solver's preconditions
    (margin, drift, stability) and arrays larger than _MAX_VALUES."""
    errors = []
    if scenario.solver is not None:
        try:
            _solver_config(scenario)
        except (StabilityError, ParameterError) as exc:
            errors.append((section_lines["solver"], str(exc)))
        except ArithmeticError:  # a float overflow or a division by an underflowed zero
            errors.append((section_lines["solver"], "hbar, mass, sigma0 and the grid put "
                                                    "the solver outside the float64 range"))
    grid = scenario.grid
    cells = (grid.nt + 1) * grid.nx
    if cells > _MAX_VALUES:
        errors.append((section_lines["grid"], f"grid of (nt + 1) * nx = {cells} values "
                                              f"exceeds the limit of {_MAX_VALUES}"))
    if "trajectories" in scenario.outputs:
        request, dt = _trajectory_plan(scenario)
        # integrate stores ceil(t_max / dt) + 1 rows, one column per seed
        size = (grid.t_max / dt + 2.0) * request.count * (1 if scenario.slit2 is None else 2)
        if size > _MAX_VALUES:
            errors.append((section_lines.get("trajectories", 0), f"trajectory table of about "
                           f"{size:.3g} values exceeds the limit of {_MAX_VALUES}"))
    return errors


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical config text; parse_config(serialize_scenario(s)) == s."""
    lines: list[str] = []
    for sec, (_, keys) in _SCHEMA.items():
        section = getattr(scenario, sec, None)  # [output] is Scenario.outputs, written below
        if section is None:
            continue
        lines.append(f"[{sec}]")
        for key in keys:
            value = getattr(section, key)
            if value is not None:
                lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
        lines.append("")
    lines += ["[output]", "select = " + ", ".join(scenario.outputs), ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# presets (illustrative geometry in natural units; override freely)

_TWO_SLIT = """\
# {comment}
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
sigma0 = {sigma0}
{shifter}
[trajectories]
count = 21
span = 3.0

[output]
select = density, phase_difference, entangling_current, trajectories
"""


def _two_slit(comment: str, sigma0: float = 1.0, shifter: tuple | None = None) -> str:
    """Preset text for the mirrored two-slit geometry; shifter is
    (total_shift, t_start, t_end)."""
    block = ""
    if shifter is not None:
        block = "\n[shifter]\ntotal_shift = {!r}\nt_start = {!r}\nt_end = {!r}\n".format(*shifter)
    return _TWO_SLIT.format(comment=comment, sigma0=sigma0, shifter=block)


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
    "fig3a": _two_slit("mirrored equal slits, no drift, no shifter"),
    "fig3b": _two_slit("unequal widths: slit 2 starts twice as narrow as slit 1", sigma0=0.5),
    "fig4": _two_slit("equal slits with a 3 pi shifter ramped over t in [2, 4]",
                      shifter=(3.0 * math.pi, 2.0, 4.0)),
    "fig5": _two_slit("equal slits with a 5 pi shifter ramped over t in [5, 7]",
                      shifter=(5.0 * math.pi, 5.0, 7.0)),
}


def load_scenario(target: str, overrides: list[str] | None = None) -> Scenario:
    """Resolve a preset name or config file path, then parse it with the
    overrides applied."""
    if target in PRESETS:
        text, name = PRESETS[target], target
    else:
        path = Path(target)
        text, name = path.read_text(encoding="utf-8"), path.stem
    return parse_config(text, name, overrides or ())


# ---------------------------------------------------------------------------
# running

@dataclass(frozen=True)
class RunResult:
    """Each selected output by name, in `scenario.outputs` order: a
    ScalarField, the TrajectorySet, or the norm trace array."""

    scenario: Scenario
    outputs: dict[str, ScalarField | TrajectorySet | np.ndarray]


def _solver_config(scenario: Scenario) -> SolverConfig:
    req = scenario.solver
    return SolverConfig(grid=scenario.grid, source=scenario.slit1 if req.source == 1 else scenario.slit2,
                        params=scenario.params, mode=req.mode, scheme=req.scheme,
                        norm_monitor_tolerance=req.norm_tolerance)


def _trajectory_plan(scenario: Scenario) -> tuple[TrajectoryRequest, float]:
    """The trajectory request and its integrator step (a quarter of the
    grid step unless set)."""
    req = scenario.trajectories or TrajectoryRequest()
    return req, req.dt if req.dt is not None else scenario.grid.dt / 4.0


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute the analytic, solver and trajectory pipelines a scenario
    selects.  Single-source density comes from the solver when one is
    configured and from the closed form otherwise; two-source scenarios
    always evaluate the interference fields in closed form."""
    grid, selected = scenario.grid, scenario.outputs
    produced = {}
    system = None
    if scenario.slit2 is not None:
        system = DoubleSlitSystem(slit1=scenario.slit1, slit2=scenario.slit2,
                                  params=scenario.params, shifter=scenario.shifter)

    if scenario.solver is not None and (
        any(OUTPUTS[name][0] == "solver" for name in selected)
        or ("density" in selected and system is None)
    ):
        solved = solve(_solver_config(scenario))
        produced.update(density=solved.density, diffusivity=solved.diffusivity,
                        norm_trace=solved.norm_trace)

    if system is not None:
        if not {"density", "phase_difference", "entangling_current"}.isdisjoint(selected):
            produced.update(intensity_grid(system, grid))
    elif "density" in selected and "density" not in produced:
        x = grid.x()[None, :]
        t = grid.times()[:, None]
        produced["density"] = ScalarField(grid, gaussian_density(scenario.slit1, scenario.params, x, t))

    if "trajectories" in selected:
        req, dt = _trajectory_plan(scenario)
        if system is not None:
            produced["trajectories"] = double_slit_trajectories(
                system, req.count, req.span, grid.t_max, dt)
        else:
            produced["trajectories"] = single_slit_trajectories(
                scenario.slit1, scenario.params, req.count, req.span, grid.t_max, dt)

    return RunResult(scenario=scenario, outputs={name: produced[name] for name in selected})


# ---------------------------------------------------------------------------
# serialization

# Lines formatted per `%` call.  Over many runs in one process, this batch
# kept RSS flat; 2**16 lines let it creep up and peak 5 MB higher.
_CSV_LINES = 1 << 12


def _write_csv(path, header: str, lead, values: np.ndarray, columns=None) -> None:
    """A header row, then one line per cell of the 2-d `values`, row-major:
    lead[i], columns[j] when given, and values[i, j], each as %.17g.  Lead
    and column values are formatted once, into row templates such as
    lead[i].join(parts) == b"t,x0,%.17g\nt,x1,%.17g\n...", not once per cell.
    Bytes, not text: encoding each batch also let RSS creep up."""
    lead = [b"%.17g" % v for v in np.asarray(lead).tolist()]
    if len(lead) != len(values):
        raise ValueError(f"{len(lead)} lead values for {len(values)} rows")
    parts = [b"", *([b",%.17g,%%.17g\n" % v for v in columns.tolist()]
                    if columns is not None else [b",%.17g\n"])]
    step = _CSV_LINES // max(values.shape[1], 1) or 1
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for r in range(0, len(values), step):
            template = b"".join([cell.join(parts) for cell in lead[r:r + step]])
            fh.write(template % tuple(values[r:r + step].ravel().tolist()))


def write_field_csv(field: ScalarField, path) -> None:
    """Rows are t,x,value in time-major order, 17 significant digits."""
    _write_csv(path, "t,x,value", field.grid.times(), field.values, field.grid.x())


def write_trajectories_csv(trajectories: TrajectorySet, path) -> None:
    """Rows are seed_id,t,x grouped by seed."""
    _write_csv(path, "seed_id,t,x", np.arange(len(trajectories.seeds)),
               trajectories.positions.T, trajectories.times)


def write_norm_trace_csv(times: np.ndarray, masses: np.ndarray, path) -> None:
    _write_csv(path, "t,mass", times, np.reshape(masses, (-1, 1)))


def _write_p5(path: Path, pixels: np.ndarray, comment: str) -> Path:
    """One binary 8-bit PGM image with a one-line comment."""
    rows, cols = pixels.shape
    path.write_bytes(f"P5\n# {comment}\n{cols} {rows}\n255\n".encode("ascii") + pixels.tobytes())
    return path


def write_pgm(field: ScalarField, path, gamma: float = 1.0,
              comment: str = "", signed: bool = False) -> list[Path]:
    """Binary 8-bit PGM; row 0 is t = 0.  Pixel = round(255 (v/v_max)^gamma).

    signed=True renders magnitudes and writes a second *_sign.pgm companion
    encoding sign as 0 (negative), 128 (zero) or 255 (positive).  Returns
    the paths written.
    """
    if not gamma > 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    path = Path(path)
    values = field.values
    magnitudes = np.abs(values) if signed else np.clip(values, 0.0, None)
    v_max = float(magnitudes.max())  # 0 only for an all-zero image, which then stays 0
    pixels = np.rint(255.0 * (magnitudes / (v_max or 1.0)) ** gamma).astype(np.uint8)
    del magnitudes  # a field-sized float array; not kept while the sign pixels are built
    written = [_write_p5(path, pixels, f"{comment} max={v_max:.17g}")]
    if signed:
        signs = np.where(values > 0, 255, np.where(values < 0, 0, 128)).astype(np.uint8)
        written.append(_write_p5(path.with_name(path.stem + "_sign" + path.suffix),
                                 signs, f"{comment} sign"))
    return written


def _check_output_options(formats: tuple[str, ...], gamma: float) -> None:
    """Reject output formats or a PGM gamma write_outputs cannot use."""
    if not formats or not set(formats) <= {"csv", "pgm"}:
        raise ParameterError(f"unsupported --format value {','.join(formats)!r}; "
                             "use csv, pgm or csv,pgm")
    if not gamma > 0:
        raise ParameterError(f"--gamma must be > 0, got {gamma}")


def write_outputs(result: RunResult, out_dir, formats=("csv",), gamma: float = 1.0) -> list[Path]:
    """Write every selected output under out_dir; returns the paths written."""
    formats = tuple(formats)
    _check_output_options(formats, gamma)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = result.scenario

    written = [out_dir / "scenario.txt"]
    written[0].write_text(serialize_scenario(scenario), encoding="utf-8", newline="\n")

    for name, value in result.outputs.items():
        kind = OUTPUTS[name][1]
        if kind == "table" or "csv" in formats:
            path = out_dir / f"{name}.csv"
            if isinstance(value, ScalarField):
                write_field_csv(value, path)
            elif isinstance(value, TrajectorySet):
                write_trajectories_csv(value, path)
            else:
                write_norm_trace_csv(scenario.grid.times(), value, path)
            written.append(path)
        if kind != "table" and "pgm" in formats:
            written += write_pgm(value, out_dir / f"{name}.pgm", gamma=gamma,
                                 comment=f"{scenario.name} {name}", signed=kind == "signed")
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

    formats = tuple(_split_select(args.format))
    try:
        _check_output_options(formats, args.gamma)
    except ParameterError as exc:
        print(exc, file=sys.stderr)
        return 2

    try:
        scenario = load_scenario(args.target, overrides=args.override)
    except ConfigError as exc:
        print("config error:", file=sys.stderr)
        for line, msg in exc.errors:
            where = f"line {line}" if line else "config"
            print(f"  {where}: {msg}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config {args.target!r}: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    created = [path for path in (out, *out.parents) if not path.exists()]  # leaf first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot use --out {args.out!r}: {exc}", file=sys.stderr)
        return 2

    try:
        # ScalarField and TrajectorySet refuse non-finite values, so numpy's
        # overflow warnings would only precede the exit-2 line below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = run_scenario(scenario)
    except (ArithmeticError, ParameterError) as exc:
        detail = exc if isinstance(exc, ParameterError) else "a value overflows float64"
        status, message = 2, f"scales out of range: {detail}"
    except StabilityError as exc:
        status, message = 3, f"stability failure: {exc}\n  {exc.report.describe()}"
    except NormDriftError as exc:
        status, message = 4, f"norm drift failure: {exc}"
    else:
        for path in write_outputs(result, args.out, formats=formats, gamma=args.gamma):
            print(f"wrote {path}")
        return 0
    for path in created:  # a failed run leaves no directory it made
        path.rmdir()
    print(message, file=sys.stderr)
    return status
