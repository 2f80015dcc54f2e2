"""Output checks for benchmark scenarios.

Every expectation here comes from something the program under test did not
compute: references captured once from the preset outputs, or closed-form
values the benchmark evaluates itself from the case's spec (the Gaussian
packet, the two-slit interference law, the trajectory seed layout).  Each
failed expectation counts as one wrong output.

Reference comparisons use a tolerance, not bytes: a reformulated kernel
that moves values by 1e-14 must still pass, while a changed digit in the
ninth place must not.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import DIFFUSIVITY

# relative tolerance against references, scaled by each column's magnitude
REL_TOL = 1e-9
# a pixel may sit on a rounding boundary and move by one level
PIXEL_TOL = 1
# reference pixel sums may differ by a few such boundary pixels
PIXEL_SUM_SLACK = 16
CSV_SAMPLES = 32
PGM_SAMPLES = 128
RENDER_SAMPLES = 512

REFERENCES = Path(__file__).with_name("references.json")


class CheckLog:
    """Counts expectations and keeps a message for each one that failed.

    `crossed_pairs` counts neighbouring trajectories that swapped order; it
    is reported on its own rather than as a wrong output (see check_paths).
    """

    def __init__(self) -> None:
        self.count = 0
        self.failures: list[str] = []
        self.crossed_pairs = 0

    def expect(self, ok, what: str) -> bool:
        self.count += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


def load_references() -> dict:
    """{reference_key(...): digest} for every preset output file."""
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def reference_key(preset: str, tiny: bool, filename: str) -> str:
    return f"{'tiny' if tiny else 'full'}/{preset}/{filename}"


# ---------------------------------------------------------------------------
# readers

def read_csv(path) -> tuple[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def read_pgm(path) -> tuple[str, np.ndarray]:
    """Binary P5 with a one-line comment; returns (comment, pixels)."""
    magic, comment, dims, depth, body = Path(path).read_bytes().split(b"\n", 4)
    if magic != b"P5" or depth != b"255" or not comment.startswith(b"# "):
        raise ValueError(f"{path}: not an 8-bit P5 file with a comment line")
    cols, rows = (int(v) for v in dims.split())
    if len(body) != rows * cols:
        raise ValueError(f"{path}: {len(body)} pixel bytes for {cols}x{rows}")
    return comment[2:].decode("ascii"), np.frombuffer(body, np.uint8).reshape(rows, cols)


def render_max(comment: str) -> float:
    return float(comment.rsplit("max=", 1)[1])


def read_config(path) -> dict:
    """scenario.txt as {section: {key: value}}; values stay strings."""
    config: dict[str, dict[str, str]] = {}
    section = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = config.setdefault(line.strip("[]"), {})
        elif line:
            key, _, value = line.partition("=")
            section[key.strip()] = value.strip()
    return config


# ---------------------------------------------------------------------------
# closed forms, evaluated independently of the package (natural units)

def _packet(slit: dict, x, t):
    """Density, offset and variance of one spreading packet."""
    s0 = slit["sigma0"]
    var = s0**2 + (DIFFUSIVITY * t / s0) ** 2
    xi = x - slit["center"] - slit["drift"] * t
    return np.exp(-(xi**2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var), xi, var


def _shift(shifter: dict | None, t):
    if shifter is None:
        return 0.0
    t0, t1 = shifter["t_start"], shifter["t_end"]
    frac = np.clip((t - t0) / (t1 - t0), 0.0, 1.0) if t1 > t0 else (t > t0) * 1.0
    return shifter["total_shift"] * frac


def two_slit_fields(spec: dict, x, t):
    """Density P1 + P2 + 2 sqrt(P1 P2) cos(phi12), the relative phase phi12
    and the entangling current sqrt(P1 P2) (u1 - u2) sin(phi12)."""
    s1, s2 = spec["slit1"], spec["slit2"]
    p1, xi1, var1 = _packet(s1, x, t)
    p2, xi2, var2 = _packet(s2, x, t)
    u01, u02 = DIFFUSIVITY / s1["sigma0"], DIFFUSIVITY / s2["sigma0"]
    phi = (
        s2["drift"] * (x - s2["center"]) - s1["drift"] * (x - s1["center"])
        + 0.5 * t * (u02**2 * xi2**2 / var2 - u01**2 * xi1**2 / var1)
        - _shift(spec.get("shifter"), t)
    )
    cross = np.sqrt(p1 * p2)
    density = p1 + p2 + 2.0 * cross * np.cos(phi)
    current = cross * (xi1 * DIFFUSIVITY / var1 - xi2 * DIFFUSIVITY / var2) * np.sin(phi)
    return {"density": density, "phase_difference": phi, "entangling_current": current}


def grid_axes(grid: dict):
    x = np.linspace(grid["x_min"], grid["x_max"], grid["nx"])
    t = np.arange(grid["nt"] + 1) * (grid["t_max"] / grid["nt"])
    return x, t


# ---------------------------------------------------------------------------
# shared file checks

def check_paths(log: CheckLog, path, label: str, starts=None, times=None) -> None:
    """seed_id,t,x blocks: finite, complete, and laid out as seeded.

    Trajectories of one velocity field cannot cross, so neighbours in the
    seed order at t = 0 should keep that order.  The fixed-step integrator
    breaks this where a shifter sweeps interference minima late in the run
    (fig5 does), so swapped neighbours are counted in `crossed_pairs`
    instead of failing the case.
    """
    header, data = read_csv(path)
    log.expect(header == "seed_id,t,x", f"{label}: header {header!r}")
    if not log.expect(np.isfinite(data).all(), f"{label}: non-finite values"):
        return
    n_seeds = int(data[:, 0].max()) + 1
    n_times, rest = divmod(len(data), n_seeds)
    if not log.expect(rest == 0 and np.array_equal(
            data[:, 0], np.repeat(np.arange(n_seeds), n_times)), f"{label}: seed blocks"):
        return
    t = data[:, 1].reshape(n_seeds, n_times)
    x = data[:, 2].reshape(n_seeds, n_times).T
    log.expect((t == t[0]).all(), f"{label}: seeds disagree on times")
    if times is not None:
        log.expect(t.shape[1] == times.size
                   and np.allclose(t[0], times, rtol=0, atol=1e-12 * times[-1]),
                   f"{label}: time column")
    if starts is not None:
        log.expect(x.shape[1] == starts.size
                   and np.allclose(x[0], starts, rtol=1e-12, atol=1e-12),
                   f"{label}: seed positions")
    gaps = np.diff(x[:, np.argsort(x[0], kind="stable")], axis=1)
    log.crossed_pairs += int(np.count_nonzero((gaps <= 0).any(axis=0)))


def check_mass(log: CheckLog, path, label: str, tolerance: float, grid=None) -> None:
    header, data = read_csv(path)
    log.expect(header == "t,mass", f"{label}: header {header!r}")
    if not log.expect(np.isfinite(data).all(), f"{label}: non-finite values"):
        return
    if grid is not None:
        _, t = grid_axes(grid)
        log.expect(data.shape == (t.size, 2)
                   and np.allclose(data[:, 0], t, rtol=0, atol=1e-12 * t[-1]),
                   f"{label}: time column")
    drift = np.abs(data[:, 1] - 1.0).max()
    log.expect(drift <= tolerance, f"{label}: mass drift {drift:.3g} > {tolerance:.3g}")


def check_render(log: CheckLog, path, label: str, grid: dict, expected, signed: bool,
                 rng: np.random.Generator) -> None:
    """A P5 render of `expected(x, t)`: size, finite scale, sampled pixels
    within one level, and a saturated pixel where the field is maximal."""
    comment, pixels = read_pgm(path)
    v_max = render_max(comment)
    if not log.expect(np.isfinite(v_max) and v_max > 0, f"{label}: scale {v_max!r}"):
        return
    shape = (grid["nt"] + 1, grid["nx"])
    if not log.expect(pixels.shape == shape, f"{label}: size {pixels.shape} != {shape}"):
        return
    x, t = grid_axes(grid)
    rows = rng.integers(0, shape[0], RENDER_SAMPLES)
    cols = rng.integers(0, shape[1], RENDER_SAMPLES)
    values = expected(x[cols], t[rows])
    magnitude = np.abs(values) if signed else np.clip(values, 0.0, None)
    off = np.abs(pixels[rows, cols] - np.rint(255.0 * magnitude / v_max)).max()
    log.expect(off <= PIXEL_TOL, f"{label}: sampled pixels off by {off:.0f} levels")
    log.expect(magnitude.max() <= v_max * (1 + REL_TOL), f"{label}: scale below a sample")
    r, c = np.unravel_index(np.argmax(pixels), shape)
    peak = abs(expected(x[c], t[r]))
    log.expect(peak >= v_max * (254.5 / 255.0) * (1 - REL_TOL),
               f"{label}: brightest pixel holds {peak:.6g}, scale {v_max:.6g}")
    if signed:
        _, sign = read_pgm(Path(path).with_name(Path(path).stem + "_sign.pgm"))
        clear = np.abs(values) > 1e-6 * v_max
        want = np.where(values > 0, 255, 0)
        log.expect(sign.shape == shape and (sign[rows, cols] == want)[clear].all(),
                   f"{label}: sign render")


# ---------------------------------------------------------------------------
# reference digests for the presets

def digest(path) -> dict:
    """A compact, tolerance-comparable summary of one output file."""
    path = Path(path)
    if path.suffix == ".csv":
        header, data = read_csv(path)
        idx = np.unique(np.linspace(0, len(data) - 1, CSV_SAMPLES).astype(int))
        return {
            "header": header,
            "rows": len(data),
            "sample_rows": idx.tolist(),
            "samples": data[idx].tolist(),
            "sum": data.sum(axis=0).tolist(),
            "abs_sum": np.abs(data).sum(axis=0).tolist(),
            "max_abs": np.abs(data).max(axis=0).tolist(),
        }
    if path.suffix == ".pgm":
        comment, pixels = read_pgm(path)
        flat = pixels.ravel()
        idx = np.unique(np.linspace(0, flat.size - 1, PGM_SAMPLES).astype(int))
        label, _, scale = comment.partition(" max=")
        return {
            "label": label,
            "max": float(scale) if scale else None,
            "shape": list(pixels.shape),
            "pixel_sum": int(flat.sum(dtype=np.int64)),
            "sample_index": idx.tolist(),
            "samples": flat[idx].tolist(),
        }
    return {"config": read_config(path)}


def _close(a, b, scale) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= REL_TOL * np.asarray(scale)))


def compare_digest(log: CheckLog, label: str, got: dict, ref: dict) -> None:
    if "config" in ref:
        same = got["config"].keys() == ref["config"].keys() and all(
            got["config"][s].keys() == ref["config"][s].keys() and all(
                _same_value(got["config"][s][k], v) for k, v in ref["config"][s].items())
            for s in ref["config"])
        log.expect(same, f"{label}: resolved configuration differs")
    elif "header" in ref:
        scale = np.asarray(ref["max_abs"])
        log.expect(got["header"] == ref["header"] and got["rows"] == ref["rows"],
                   f"{label}: header or row count")
        log.expect(got["rows"] == ref["rows"] and _close(got["samples"], ref["samples"], scale),
                   f"{label}: sampled rows differ from reference")
        abs_sum = np.asarray(ref["abs_sum"])
        log.expect(_close(got["sum"], ref["sum"], abs_sum)
                   and _close(got["abs_sum"], ref["abs_sum"], abs_sum)
                   and _close(got["max_abs"], ref["max_abs"], scale),
                   f"{label}: column sums differ from reference")
    else:
        log.expect(got["label"] == ref["label"] and got["shape"] == ref["shape"],
                   f"{label}: render label or size")
        log.expect(ref["max"] is None or _close(got["max"], ref["max"], abs(ref["max"])),
                   f"{label}: render scale differs from reference")
        off = np.abs(np.asarray(got["samples"]) - np.asarray(ref["samples"])).max()
        log.expect(got["sample_index"] == ref["sample_index"] and off <= PIXEL_TOL,
                   f"{label}: sampled pixels differ from reference")
        log.expect(abs(got["pixel_sum"] - ref["pixel_sum"]) <= PIXEL_SUM_SLACK,
                   f"{label}: pixel sum differs from reference")


def _same_value(a: str, b: str) -> bool:
    try:
        return _close(float(a), float(b), abs(float(b)))
    except ValueError:
        return a == b


# ---------------------------------------------------------------------------
# per-kind checks

def _check_preset(log: CheckLog, out: Path, spec: dict, refs: dict) -> None:
    name = spec["preset"]
    prefix = reference_key(name, spec["tiny"], "")
    expected = {key[len(prefix):]: ref for key, ref in refs.items() if key.startswith(prefix)}
    log.expect(expected, f"{name}: no references")
    for filename, ref in expected.items():
        path = out / filename
        label = f"{name}/{filename}"
        if not log.expect(path.is_file(), f"{label}: missing"):
            continue
        got = digest(path)
        compare_digest(log, label, got, ref)
        if "header" in got:
            log.expect(np.isfinite(got["abs_sum"]).all(), f"{label}: non-finite values")
    if (out / "trajectories.csv").is_file():
        check_paths(log, out / "trajectories.csv", f"{name}/trajectories.csv")
    if (out / "norm_trace.csv").is_file():
        # presets solve with the default drift tolerance
        check_mass(log, out / "norm_trace.csv", f"{name}/norm_trace.csv", 1e-6)


def _check_trajectories(log: CheckLog, out: Path, spec: dict) -> None:
    grid, traj = spec["grid"], spec["trajectories"]
    starts = []
    for slit in (spec["slit1"], spec["slit2"]):
        half = traj["span"] * slit["sigma0"]
        starts.append(slit["center"] + np.linspace(-half, half, traj["count"]))
    # the CLI integrates with a quarter of the grid step
    steps = 4 * grid["nt"]
    times = np.arange(steps + 1) * (grid["t_max"] / steps)
    check_paths(log, out / "trajectories.csv", "trajectories.csv",
                starts=np.concatenate(starts), times=times)


def _check_solver(log: CheckLog, out: Path, spec: dict) -> None:
    grid, slit = spec["grid"], spec["slit1"]
    check_mass(log, out / "norm_trace.csv", "norm_trace.csv",
               spec["solver"]["norm_tolerance"], grid)
    comment, pixels = read_pgm(out / "density.pgm")
    v_max = render_max(comment)
    log.expect(pixels.shape == (grid["nt"] + 1, grid["nx"]), "density.pgm: size")
    # diffusion never raises the maximum, so the scale is the initial peak
    x, _ = grid_axes(grid)
    initial, _, _ = _packet(slit, x, 0.0)
    peak = initial.max()
    if log.expect(np.isfinite(v_max) and abs(v_max - peak) <= REL_TOL * peak,
                  f"density.pgm: scale {v_max!r}, initial peak {peak!r}"):
        off = np.abs(pixels[0] - np.rint(255.0 * initial / v_max)).max()
        log.expect(off <= PIXEL_TOL, f"density.pgm: initial row off by {off:.0f} levels")


def _check_fringe(log: CheckLog, out: Path, spec: dict, rng) -> None:
    for name in ("density", "phase_difference", "entangling_current"):
        check_render(log, out / f"{name}.pgm", f"{name}.pgm", spec["grid"],
                     lambda x, t, name=name: two_slit_fields(spec, x, t)[name],
                     signed=name != "density", rng=rng)


def check_case(case, out: Path, refs: dict, rng: np.random.Generator) -> CheckLog:
    """Run every check for one finished scenario; a file that cannot be read
    or parsed counts as one wrong output."""
    log = CheckLog()
    try:
        if case.kind == "preset":
            _check_preset(log, out, case.spec, refs)
        elif case.kind == "trajectories":
            _check_trajectories(log, out, case.spec)
        elif case.kind == "solver":
            _check_solver(log, out, case.spec)
        else:
            _check_fringe(log, out, case.spec, rng)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        log.expect(False, f"unreadable output: {type(exc).__name__}: {exc}")
    return log
