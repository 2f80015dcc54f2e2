"""Benchmark of the `simulate` command, from config to files on disk.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
`src/`.  One client drives `ballistic.cli.main(argv)` in-process in a
closed loop: the next scenario starts when the previous one has finished
and its outputs have been checked.  --seconds is the scenario time a run
measures; checking outputs comes on top.  Workloads (see workloads.py):

  presets        the five presets with --format csv,pgm (output layer)
  shifter_sweep  two-slit trajectories from fig4 (velocity field, RK4)
  solver_ladder  single-source solves from fig1 (finite differences)
  fringe_field   large two-slit renders from fig3a (interference grid)

--trace 0 reports the end-to-end metrics: setup_s (a fresh interpreter
that imports ballistic.cli and resolves the first scenario, median of
several), the median and 90th percentile of one main(argv) call, the
throughput and the peak RSS.  --trace 1 runs every scenario twice, untraced
and then with every layer wrapped (tracing.py), and reports per-layer
figures and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record, including the
software versions and the per-scenario samples, goes to
.bench_runs/results/, and the spans of a traced run to .bench_runs/traces/.
BLAS runs single-threaded so that runs on a shared machine stay comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

BLAS_THREADS = "1"
SETUP_SAMPLES = 7
# a traced run times each scenario untraced, then again traced; the untraced
# runs get this share of the budget, so that the pair fills about all of it
UNTRACED_SHARE = 0.45

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from ballistic.cli import load_scenario; load_scenario(sys.argv[2], sys.argv[3:])"
)


@dataclass
class Sample:
    case: object
    seconds: float
    status: object  # exit code, or "exception"
    checks: int = 0
    wrong: tuple = ()
    crossed_pairs: int = 0


def run_case(cli, case, out_dir: Path, tracer=None) -> Sample:
    """One main(argv) call, timed; console output is captured, not shown."""
    argv = [*case.argv, "--out", str(out_dir)]
    console = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            status = tracer.scenario(cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is a failed scenario, not a crash of the run
        status = "exception"
        console.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if status != 0:
        print(f"scenario failed ({status}): {' '.join(argv)}\n{console.getvalue()[-2000:]}",
              file=sys.stderr)
    return Sample(case, seconds, status)


def run_and_check(cli, case, refs, index: int, seed: int, tracer=None) -> Sample:
    import numpy as np
    from checks import check_case

    out_dir = RUNS / "work" / f"scenario-{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    sample = run_case(cli, case, out_dir, tracer)
    if sample.status == 0:
        log = check_case(case, out_dir, refs, np.random.default_rng([seed, index]))
        sample.checks, sample.wrong = log.count, tuple(log.failures)
        sample.crossed_pairs = log.crossed_pairs
        for message in log.failures:
            print(f"wrong output: {message} ({' '.join(case.argv)})", file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def measure_setup(case, samples: int) -> list[float]:
    """Wall time of a fresh interpreter resolving the first scenario."""
    overrides = [case.argv[i + 1] for i, arg in enumerate(case.argv) if arg == "--override"]
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), case.argv[0], *overrides]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-2000:]}")
    return times


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def outcome_counts(samples: list[Sample]) -> dict:
    exits = Counter(str(s.status) for s in samples)
    failed = sum(1 for s in samples if s.status != 0 or s.wrong)
    return {
        "attempted": len(samples),
        "failed": failed,
        "wrong_outputs": sum(len(s.wrong) for s in samples),
        "output_checks": sum(s.checks for s in samples),
        "crossed_pairs": sum(s.crossed_pairs for s in samples),
        "exits": dict(sorted(exits.items())),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one benchmark and return its result record."""
    import ballistic.cli as cli
    from checks import load_references
    from workloads import cases, rounds

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported {cli.__file__}, not the package under {SRC}")
    refs = load_references()

    # warm-up: lazy imports and first-call costs stay out of the samples
    run_and_check(cli, next(cases(workload, seed, tiny=True)), refs, 0, seed)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "environment": environment()}
    if trace:
        from tracing import Tracer, install, layer_metrics, self_time_table
        tracer = Tracer()

    # The budget counts untraced scenario time only, so that checking
    # outputs does not shrink the sample, and is tested between rounds only.
    samples: list[Sample] = []
    replay: list[Sample] = []
    budget = seconds * (UNTRACED_SHARE if trace else 1.0)
    stream = rounds(workload, seed, tiny)
    while not samples or sum(s.seconds for s in samples) < budget:
        for case in next(stream):
            index = len(samples) + len(replay) + 1
            samples.append(run_and_check(cli, case, refs, index, seed))
            if trace:
                install(tracer)
                try:
                    replay.append(run_and_check(cli, case, refs, index + 1, seed, tracer))
                finally:
                    tracer.close()
    times = [s.seconds for s in samples]

    if not trace:
        setup = measure_setup(samples[0].case, 1 if tiny else SETUP_SAMPLES)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "scenario_s.p50": (statistics.median(times), "s"),
            "scenario_s.p90": (percentile(times, 90), "s"),
            "scenarios_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record["setup_samples"] = setup
    else:
        samples += replay
        traced = [s.seconds for s in replay]
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (sum(traced) / sum(times), "ratio")
        metrics["trace.scenarios"] = (len(replay), "count")
        tracer.write_spans(RUNS / "traces" / f"{workload}-seed{seed}.csv")
        record["self_time_s"] = self_time_table(tracer)

    outcome = outcome_counts(samples)
    n = outcome["attempted"]
    if trace:
        exits = outcome["exits"]
        metrics.update({
            "checks.wrong_outputs": (outcome["wrong_outputs"], "count"),
            "checks.output_checks": (outcome["output_checks"], "count"),
            "checks.crossed_pairs": (outcome["crossed_pairs"] / n, "count"),
            "run.failed_ratio": (outcome["failed"] / n, "ratio"),
            "run.exit_2": (exits.get("2", 0), "count"),
            "run.exit_3": (exits.get("3", 0), "count"),
            "run.exit_4": (exits.get("4", 0), "count"),
            "run.exceptions": (exits.get("exception", 0), "count"),
        })
    record.update(outcome)
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["samples"] = [
        {"argv": list(s.case.argv), "seconds": s.seconds, "status": s.status,
         "checks": s.checks, "wrong": list(s.wrong), "crossed_pairs": s.crossed_pairs}
        for s in samples
    ]
    return record


def summary(record: dict) -> list[str]:
    n = record["attempted"]
    lines = [
        f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"scenarios={n} failed_ratio={record['failed'] / n:.6g} "
        f"wrong_outputs={record['wrong_outputs']} output_checks={record['output_checks']} "
        f"exits={record['exits']} crossed_pairs={record['crossed_pairs']}",
        "environment: " + " ".join(f"{k}={v}" for k, v in record["environment"].items()),
    ]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, seconds in record.get("self_time_s", [])[:8]:
        lines.append(f"  self time {name}: {seconds:.4f} s")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced grids, for a quick smoke run of the harness")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "ballistic" / "cli.py").is_file():
        print(f"no package source at {SRC / 'ballistic'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # before numpy loads: the BLAS reads its thread count once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    record = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(summary(record)))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
