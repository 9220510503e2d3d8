"""Benchmark of the ``atsplit`` CLI: timed end-to-end runs or a traced run.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload map --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1                 # every workload, both modes

``--trace 0`` measures the end-to-end metrics: ``atsplit run`` invocations
in a closed loop, one at a time, for ``--seconds``. ``--trace 1`` measures the
per-layer metrics: traced and untraced iterations alternate, and in-process
microbenchmarks run once. Every output is checked against the numpy
reference in ``check.py``. One line per metric is printed, then the machine
record; the last line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from check import check_call
from workloads import PAPER_CFG, WORKLOADS, Call, Workload

BENCH_DIR = Path(__file__).resolve().parent
SOURCE = Path("src") / "atsplit" / "cli.py"

#: Every run ends well inside the three minutes it is allowed.
HARD_LIMIT_S = 170.0

#: ``atsplit validate`` calls timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 7

#: Seeded CSV rows re-solved by the reference, per CSV and invocation.
CHECKED_ROWS = 8

END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "config.load_s": "s",
    "cli.write_s": "s",
    "experiments.self_s": "s",
    "analysis.fit_peaks_s": "s",
    "analysis.fit_peaks_calls": "count",
    "analysis.dark_state_fidelity_s": "s",
    "analysis.dark_state_fidelity_calls": "count",
    "solver.evolve_s": "s",
    "solver.evolve_calls": "count",
    "model.check_density_matrix_calls": "count",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "solver.build_liouvillian_us": "us",
    "solver.steady_state_us": "us",
    "solver.evolve_ms": "ms",
    "experiments.at_map_serial_s": "s",
    "experiments.at_map_serial_peak_mb": "MB",
    "analysis.fit_peaks_ms": "ms",
    "analysis.dark_state_fidelity_us": "us",
    "config.load_ms": "ms",
}


@dataclass
class Invocation:
    wall_s: float
    max_rss_kb: int
    problems: list[str]


@dataclass
class Iteration:
    """One pass over a workload's calls."""

    wall_s: float = 0.0
    rows: int = 0
    max_rss_kb: int = 0
    spans: list[dict] = field(default_factory=list)


class Runner:
    """Runs the program as subprocesses and tallies failed invocations."""

    def __init__(self, workload: Workload, seed: int, work: Path, started: float):
        self.workload = workload
        self.work = work
        self.started = started
        self.rng = np.random.default_rng([seed, 99])
        self.attempted = 0
        self.failed = 0
        self.config = workload.write_config(work / f"{workload.name}.cfg")
        self.env = dict(os.environ)
        src = str(Path("src").resolve())
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def _spawn(self, argv: list[str], log: Path) -> tuple[int, float, int]:
        """Run argv to completion; returns exit code, wall time and peak RSS.

        ``wait4`` reports the largest resident set of the process and of every
        descendant it waited for, which covers the process-pool workers.
        """
        remaining = HARD_LIMIT_S - (perf_counter() - self.started)
        with log.open("w") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(max(remaining, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def _record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for line in problems[:5]:
                print(f"check failed: {line}")

    def validate(self) -> float:
        argv = [sys.executable, "-m", "atsplit.cli", "validate", str(self.config)]
        log = self.work / "validate.log"
        code, wall, _ = self._spawn(argv, log)
        ok = code == 0 and log.read_text().rstrip().endswith("config ok")
        self._record([] if ok else [f"validate: exit code {code}, output {log.read_text()!r}"])
        return wall

    def invoke(self, call: Call, traced: bool) -> tuple[Invocation, dict | None]:
        out_dir = self.work / call.label
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path = self.work / f"{call.label}.spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "atsplit.cli"]
        argv += ["run", str(self.config), "--out", str(out_dir)]
        for item in call.overrides:
            argv += ["--set", item]
        code, wall, rss = self._spawn(argv, self.work / f"{call.label}.log")
        problems = check_call(call, out_dir, code, self.rng, CHECKED_ROWS)
        self._record(problems)
        spans = None
        if traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text())
            spans["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        return Invocation(wall, rss, problems), spans

    def iterate(self, traced: bool = False) -> Iteration:
        it = Iteration()
        for call in self.workload.calls:
            inv, spans = self.invoke(call, traced)
            it.wall_s += inv.wall_s
            it.max_rss_kb = max(it.max_rss_kb, inv.max_rss_kb)
            if not inv.problems:
                it.rows += call.rows
            if spans is not None:
                it.spans.append(spans)
        return it

    def micro(self) -> dict:
        argv = [sys.executable, str(BENCH_DIR / "micro.py"), str(self.config)]
        log = self.work / "micro.log"
        code, _, _ = self._spawn(argv, log)
        lines = log.read_text().strip().splitlines()
        self._record([] if code == 0 else [f"micro: exit code {code}, output {lines[-3:]}"])
        return json.loads(lines[-1]) if code == 0 else {}


def layer_metrics(trace: dict) -> dict:
    """Per-layer figures of one traced invocation.

    A span's self time is its duration minus its direct children's (calls
    are sequential, so children never overlap).
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def total(name: str) -> float:
        return sum(end - start for _, _, n, start, end in spans if n == name)

    def calls(name: str) -> int:
        return sum(1 for span in spans if span[2] == name)

    def self_time(prefix: str) -> float:
        return sum(
            end - start - child_time[sid]
            for sid, _, n, start, end in spans
            if n.startswith(prefix)
        )

    return {
        "config.load_s": total("config.load"),
        "cli.write_s": self_time("cli.main"),
        "experiments.self_s": self_time("experiments."),
        "analysis.fit_peaks_s": total("analysis.fit_peaks"),
        "analysis.fit_peaks_calls": calls("analysis.fit_peaks"),
        "analysis.dark_state_fidelity_s": total("analysis.dark_state_fidelity"),
        "analysis.dark_state_fidelity_calls": calls("analysis.dark_state_fidelity"),
        "solver.evolve_s": total("solver.evolve"),
        "solver.evolve_calls": calls("solver.evolve"),
        "model.check_density_matrix_calls": trace["counts"].get("model.check_density_matrix", 0),
        "cli.bytes_written": trace["bytes_written"],
        "trace.overhead_s": trace["overhead_s"],
    }


def summed(traces: list[dict]) -> dict:
    out: dict = {}
    for trace in traces:
        for key, value in layer_metrics(trace).items():
            out[key] = out.get(key, 0) + value
    return out


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    runner.validate()  # warm-up: byte-compiles the package on a fresh checkout
    setup = [runner.validate() for _ in range(SETUP_REPEATS)]
    deadline = perf_counter() + seconds
    iterations = []
    while len(iterations) < 3 or perf_counter() < deadline:
        iterations.append(runner.iterate())
    return {
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "points_per_s": statistics.median(it.rows / it.wall_s for it in iterations),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(it.max_rss_kb for it in iterations) / 1024.0,
    }


def measure_layers(runner: Runner, seconds: float) -> dict:
    runner.validate()
    deadline = perf_counter() + seconds
    metrics = runner.micro()
    traced = []
    while len(traced) < 3 or perf_counter() < deadline:
        traced.append(runner.iterate(traced=True))
    per_iteration = [summed(it.spans) for it in traced]
    for key in per_iteration[0]:
        values = [m[key] for m in per_iteration]
        if key.endswith("_calls") or key == "cli.bytes_written":
            if len(set(values)) != 1:
                print(f"warning: {key} differs between traced iterations: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    print(f"{runner.workload.name:7s} {'traced wall_s':36s} "
          f"{statistics.median(it.wall_s for it in traced):>14.6g} s")
    return metrics


def machine_record() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{v.get('name')} {v.get('version')}" for k, v in deps.items()}
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in thread_vars},
        "commit": commit,
    }


def run_one(name: str, seed: int, seconds: float, trace: int, work_root: Path) -> tuple:
    started = perf_counter()
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        runner = Runner(WORKLOADS[name](seed), seed, work, started)
        if trace:
            metrics = measure_layers(runner, seconds)
            units = PER_LAYER_UNITS
        else:
            metrics = measure_end_to_end(runner, seconds)
            units = END_TO_END_UNITS
        for key, unit in units.items():
            value = metrics.get(key, float("nan"))
            text = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"{name:7s} {key:36s} {text} {unit}")
        print(f"{name:7s} {'fail_ratio':36s} {runner.fail_ratio:>14.6g} 1 "
              f"({runner.failed} of {runner.attempted} invocations failed)")
        result = {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics}
        return result, runner.attempted, runner.failed, set(units) - set(metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SOURCE, PAPER_CFG) if not p.is_file()]
    if missing:
        print(f"error: run from the root of an atsplit source checkout; missing {missing}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)
    work_root = Path(".bench_work")
    work_root.mkdir(exist_ok=True)
    metrics, attempted, failed, missing_metrics = {}, 0, 0, set()
    for name in names:
        for mode in modes:
            result, n, f, lost = run_one(name, args.seed, args.seconds, mode, work_root)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in result.items()})
            attempted, failed, missing_metrics = attempted + n, failed + f, missing_metrics | lost
    try:
        work_root.rmdir()
    except OSError:
        pass  # another run is using it
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    correct = failed == 0 and not missing_metrics
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
